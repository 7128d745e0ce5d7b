// Fused attention deep-dive: how SpaceFusion discovers the FlashAttention
// dataflow from first principles.
//
// Walks the pipeline step by step for a long-sequence attention workload:
// dimension classification (Table 3), spatial slicing, temporal-dim
// priority, Broadcast Postposition's update functions, the resource-checked
// search space, tuning, and a sequence-length sweep against FlashAttention.
//
//   $ ./build/examples/fused_attention
#include <cstdio>

#include "src/core/spacefusion.h"
#include "src/schedule/lowering.h"
#include "src/slicing/slicers.h"
#include "src/support/logging.h"
#include "src/tuning/tuner.h"

int main() {
  using namespace spacefusion;
  SetLogThreshold(LogLevel::kWarning);
  GpuArch arch = AmpereA100();

  Graph mha = BuildMha(/*batch_heads=*/32 * 12, /*seq_q=*/2048, /*seq_kv=*/2048,
                       /*head_dim=*/64);
  auto built = BuildSmg(mha);
  if (!built.ok()) {
    return 1;
  }

  // Step 1: classify every dimension of the fused space (paper Table 3).
  std::printf("== Dimension analysis ==\n");
  for (const DimAnalysis& a : AnalyzeAllDims(built->smg)) {
    std::printf("  %-4s extent %-6lld class %-16s %s\n",
                built->smg.dim(a.dim).name.c_str(),
                static_cast<long long>(built->smg.dim(a.dim).extent), DimClassName(a.cls),
                a.SpatialSliceable() ? "[spatially sliceable]" : "");
  }

  // Step 2: spatial slicing.
  std::vector<DimId> spatial = SpatialSlicer::GetDims(built->smg);
  std::printf("\nspatial dims:");
  for (DimId d : spatial) {
    std::printf(" %s", built->smg.dim(d).name.c_str());
  }
  std::printf("\n");

  // Step 3: temporal slicing with Update-then-Aggregate.
  auto choice = TemporalSlicer::GetPriorDim(mha, *built, spatial);
  if (choice.ok()) {
    std::printf("temporal dim: %s (priority by data volume)\n",
                built->smg.dim(choice->dim).name.c_str());
    std::printf("\n== Derived update functions ==\n%s\n", choice->plan.ToString(mha).c_str());
  }

  // Step 4: compile and sweep sequence lengths against FlashAttention.
  std::printf("== Sequence-length sweep (batch 32, A100, simulated) ==\n");
  std::printf("  %-8s %14s %14s %14s\n", "seq", "SpaceFusion", "FlashAttn2", "PyTorch");
  auto fa2 = MakeFlashAttention2();
  auto pytorch = MakePyTorchBaseline();
  for (std::int64_t seq : {256, 512, 1024, 2048, 4096}) {
    Graph g = BuildMha(32 * 12, seq, seq, 64);
    auto sf = CompilerEngine{CompileOptions(arch)}.Compile(g);
    auto fa = EstimateGraphWithBaseline(g, *fa2, arch);
    auto pt = EstimateGraphWithBaseline(g, *pytorch, arch);
    std::printf("  %-8lld %11.1f us %11.1f us %11.1f us\n", static_cast<long long>(seq),
                sf.ok() ? sf->estimate.time_us : -1.0, fa ? fa->time_us : -1.0,
                pt ? pt->time_us : -1.0);
  }
  return 0;
}
