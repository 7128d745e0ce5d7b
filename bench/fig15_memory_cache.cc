// Reproduces paper Fig. 15: memory & cache analysis. L1 / L2 cache miss
// counts and device-memory data movement for representative subgraphs,
// normalized to SpaceFusion (lower is better), measured with the
// trace-driven memory simulator on the Ampere configuration.
//
// Fused baselines per subgraph follow the paper: cuBLASLt for MLP,
// PyTorch Op for LN, FlashAttention for MHA; the unfused baseline is
// per-operator PyTorch.
//
// Paper reference: up to 83.0% fewer L1 misses, 94.1% fewer L2 misses, and
// 96.45% less data movement than the baselines; LN data movement avg 5.25x
// lower than unfused, MHA avg 18.98x.
#include "bench/bench_util.h"
#include "src/schedule/lowering.h"
#include "src/tuning/tuner.h"

namespace spacefusion {
namespace {

struct Workload {
  std::string label;
  Graph graph;
  std::unique_ptr<Baseline> fused;
};

std::vector<KernelSpec> SpaceFusionKernels(const Graph& graph, const GpuArch& arch) {
  CompilerEngine engine{CompileOptions(arch)};
  StatusOr<CompiledSubprogram> compiled = engine.Compile(graph);
  if (!compiled.ok()) {
    return {};
  }
  return compiled->kernels;
}

void Run() {
  GpuArch arch = AmpereA100();
  PrintHeader(
      "Figure 15: Memory & cache analysis (Ampere) — L1 misses / L2 misses / DRAM traffic,\n"
      "normalized to SpaceFusion (lower is better; SpaceFusion = 1.0)");

  std::vector<Workload> workloads;
  workloads.push_back({"MLP(4, 1K)", BuildMlp(4, 1024, 256, 256), MakeCublasLtBaseline()});
  workloads.push_back({"MLP(8, 4K)", BuildMlp(8, 4096, 256, 256), MakeCublasLtBaseline()});
  workloads.push_back({"LN(4K)", BuildLayerNormGraph(4096, 4096), MakeTorchOpLayerNorm()});
  workloads.push_back({"LN(16K)", BuildLayerNormGraph(16384, 16384), MakeTorchOpLayerNorm()});
  workloads.push_back({"MHA(32, 1K)", BuildMha(32 * 12, 1024, 1024, 64), MakeFlashAttention1()});
  workloads.push_back({"MHA(32, 2K)", BuildMha(32 * 12, 2048, 2048, 64), MakeFlashAttention1()});

  auto pytorch = MakePyTorchBaseline();

  PrintSeriesHeader("workload", {"L1 fused", "L1 unfused", "L2 fused", "L2 unfused",
                                 "DRAM fused", "DRAM unfused"});

  double ln_dram_gain = 0.0, mha_dram_gain = 0.0;
  int ln_n = 0, mha_n = 0;

  for (Workload& w : workloads) {
    std::vector<KernelSpec> sf = SpaceFusionKernels(w.graph, arch);
    AddressMap am_fused, am_unfused;
    std::vector<KernelSpec> fused = w.fused->Plan(w.graph, arch, &am_fused);
    std::vector<KernelSpec> unfused = pytorch->Plan(w.graph, arch, &am_unfused);

    ExecutionReport sf_rep = SimulateMemory(sf, arch);
    ExecutionReport fused_rep = SimulateMemory(fused, arch);
    ExecutionReport unfused_rep = SimulateMemory(unfused, arch);

    auto norm = [](std::int64_t v, std::int64_t base) {
      return base > 0 ? static_cast<double>(v) / static_cast<double>(base) : -1.0;
    };
    PrintRow(w.label, {norm(fused_rep.l1_misses, sf_rep.l1_misses),
                       norm(unfused_rep.l1_misses, sf_rep.l1_misses),
                       norm(fused_rep.l2_misses, sf_rep.l2_misses),
                       norm(unfused_rep.l2_misses, sf_rep.l2_misses),
                       norm(fused_rep.dram_bytes, sf_rep.dram_bytes),
                       norm(unfused_rep.dram_bytes, sf_rep.dram_bytes)});

    if (w.label.rfind("LN", 0) == 0) {
      ln_dram_gain += norm(unfused_rep.dram_bytes, sf_rep.dram_bytes);
      ++ln_n;
    }
    if (w.label.rfind("MHA", 0) == 0) {
      mha_dram_gain += norm(unfused_rep.dram_bytes, sf_rep.dram_bytes);
      ++mha_n;
    }
  }
  std::printf("\nAvg DRAM-traffic reduction vs unfused: LN %.2fx (paper 5.25x), MHA %.2fx"
              " (paper 18.98x)\n",
              ln_n ? ln_dram_gain / ln_n : 0.0, mha_n ? mha_dram_gain / mha_n : 0.0);
}

}  // namespace
}  // namespace spacefusion

int main() {
  spacefusion::SetLogThreshold(spacefusion::LogLevel::kWarning);
  spacefusion::Run();
  return 0;
}
