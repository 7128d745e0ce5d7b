// Reproduces paper Fig. 14: end-to-end Transformer inference. Speedups over
// the HuggingFace-PyTorch baseline for SpaceFusion, TensorRT, Kernl,
// BladeDISC (AStitch) and NNFusion (Welder), across five models, batch sizes
// 1 and 32, and the three architectures. Missing entries mirror the paper's
// support gaps (NNFusion: Volta only; BladeDISC: no Hopper).
//
// Paper reference: SpaceFusion max 8.79x / avg 3.54x over PyTorch; avg 1.27x
// over TensorRT, 1.34x over Kernl, 2.27x over BladeDISC, 1.21x over
// NNFusion (Volta).
#include "bench/bench_util.h"

namespace spacefusion {
namespace {

double SpaceFusionModelTimeUs(const ModelGraph& model, const GpuArch& arch) {
  CompilerEngine engine{CompileOptions(arch)};
  StatusOr<CompiledModel> compiled = engine.CompileModel(model);
  return compiled.ok() ? compiled->total.time_us : -1.0;
}

double BaselineModelTimeUs(const ModelGraph& model, const Baseline& baseline,
                           const GpuArch& arch) {
  std::optional<ExecutionReport> report = EstimateModelWithBaseline(model, baseline, arch);
  return report ? report->time_us : -1.0;
}

void Run() {
  PrintHeader("Figure 14: End-to-end model inference — speedup over PyTorch (HuggingFace)");
  auto pytorch = MakePyTorchBaseline();
  std::vector<std::unique_ptr<Baseline>> engines;
  engines.push_back(MakeTensorRtBaseline());
  engines.push_back(MakeKernlBaseline());
  engines.push_back(MakeAStitchBaseline());  // BladeDISC
  engines.push_back(MakeWelderBaseline());   // NNFusion

  struct Agg {
    double sum = 0, max = 0;
    int n = 0;
    void Add(double v) {
      if (v > 0) {
        sum += v;
        max = std::max(max, v);
        ++n;
      }
    }
    double avg() const { return n ? sum / n : 0; }
  };
  Agg sf_vs_pt;
  std::vector<Agg> sf_vs_engine(engines.size());

  for (std::int64_t batch : {1, 32}) {
    for (const GpuArch& arch : AllArchitectures()) {
      std::printf("\n[batch=%lld, %s]  (seq 512 / ViT 224px)\n",
                  static_cast<long long>(batch), arch.name.c_str());
      std::vector<std::string> cols = {"SpaceFusion", "TensorRT", "Kernl", "BladeDISC",
                                       "NNFusion"};
      PrintSeriesHeader("model \\ engine", cols);

      for (ModelKind kind : AllModelKinds()) {
        std::int64_t seq = kind == ModelKind::kViT ? 224 : 512;
        ModelGraph model = BuildModel(GetModelConfig(kind, batch, seq));
        double base = BaselineModelTimeUs(model, *pytorch, arch);
        double sf = SpaceFusionModelTimeUs(model, arch);

        std::vector<double> row;
        row.push_back(Speedup(base, sf));
        sf_vs_pt.Add(Speedup(base, sf));
        for (size_t i = 0; i < engines.size(); ++i) {
          double t = BaselineModelTimeUs(model, *engines[i], arch);
          row.push_back(Speedup(base, t));
          sf_vs_engine[i].Add(Speedup(t, sf));
        }
        PrintRow(ModelKindName(kind), row);
      }
    }
  }

  std::printf("\nSpaceFusion vs PyTorch : max %.2fx, avg %.2fx (paper: max 8.79x, avg 3.54x)\n",
              sf_vs_pt.max, sf_vs_pt.avg());
  const char* names[] = {"TensorRT", "Kernl", "BladeDISC", "NNFusion"};
  const double paper[] = {1.27, 1.34, 2.27, 1.21};
  for (size_t i = 0; i < sf_vs_engine.size(); ++i) {
    std::printf("SpaceFusion vs %-9s: avg %.2fx (paper: %.2fx)\n", names[i],
                sf_vs_engine[i].avg(), paper[i]);
  }
}

}  // namespace
}  // namespace spacefusion

int main() {
  spacefusion::SetLogThreshold(spacefusion::LogLevel::kWarning);
  spacefusion::Run();
  return 0;
}
