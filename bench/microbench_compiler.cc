// Google-benchmark microbenchmarks of the compiler itself: SMG
// construction, dimension analysis, slicing, search-space enumeration and
// full compilation. These back the paper's claim that the SMG abstraction's
// analysis and transformation passes are lightweight (Sec. 6.5).
#include <benchmark/benchmark.h>

#include "src/core/spacefusion.h"
#include "src/schedule/lowering.h"
#include "src/schedule/pipeline.h"
#include "src/schedule/resource_aware.h"
#include "src/sim/memory_sim.h"
#include "src/slicing/slicers.h"
#include "src/support/logging.h"
#include "src/tuning/tuner.h"

namespace spacefusion {
namespace {

void BM_BuildSmgMha(benchmark::State& state) {
  Graph g = BuildMha(32 * 12, state.range(0), state.range(0), 64);
  for (auto _ : state) {
    auto built = BuildSmg(g);
    benchmark::DoNotOptimize(built);
  }
}
BENCHMARK(BM_BuildSmgMha)->Arg(256)->Arg(1024)->Arg(8192);

void BM_DimAnalysis(benchmark::State& state) {
  Graph g = BuildMha(32 * 12, 1024, 1024, 64);
  auto built = BuildSmg(g);
  for (auto _ : state) {
    auto dims = AnalyzeAllDims(built->smg);
    benchmark::DoNotOptimize(dims);
  }
}
BENCHMARK(BM_DimAnalysis);

void BM_TemporalSlicerMha(benchmark::State& state) {
  Graph g = BuildMha(32 * 12, 1024, 1024, 64);
  auto built = BuildSmg(g);
  std::vector<DimId> spatial = SpatialSlicer::GetDims(built->smg);
  for (auto _ : state) {
    auto choice = TemporalSlicer::GetPriorDim(g, *built, spatial);
    benchmark::DoNotOptimize(choice);
  }
}
BENCHMARK(BM_TemporalSlicerMha);

void BM_SlicingPipelineMha(benchmark::State& state) {
  Graph g = BuildMha(32 * 12, 1024, 1024, 64);
  ResourceConfig rc = ResourceConfig::FromArch(AmpereA100());
  for (auto _ : state) {
    auto pipeline = RunSlicingPipeline(g, rc, SlicingOptions());
    benchmark::DoNotOptimize(pipeline);
  }
}
BENCHMARK(BM_SlicingPipelineMha);

void BM_CompileSubgraph(benchmark::State& state) {
  std::vector<Graph> graphs;
  graphs.push_back(BuildMha(32 * 12, 1024, 1024, 64));
  graphs.push_back(BuildMlp(8, 4096, 256, 256));
  graphs.push_back(BuildLayerNormGraph(8192, 8192));
  const Graph& g = graphs[static_cast<size_t>(state.range(0))];
  for (auto _ : state) {
    CompilerEngine engine{CompileOptions(AmpereA100())};  // fresh: no cache hits
    auto compiled = engine.Compile(g);
    benchmark::DoNotOptimize(compiled);
  }
}
BENCHMARK(BM_CompileSubgraph)->Arg(0)->Arg(1)->Arg(2);

// The tuning hot loop with staged-fidelity screening off (Arg 0) and at the
// default top-K (Arg 1): the gap between the two is the win the Table 4/5
// compile-time numbers ride on.
void BM_TuneKernelMha(benchmark::State& state) {
  Graph g = BuildMha(32 * 12, 1024, 1024, 64);
  ResourceConfig rc = ResourceConfig::FromArch(AmpereA100());
  CostModel cost(AmpereA100());
  auto sliced = ResourceAwareSlicing(g, rc);
  SF_CHECK(sliced.ok());
  TunerOptions options;
  options.screen_top_k = state.range(0) == 0 ? 0 : -1;
  for (auto _ : state) {
    SlicingResult work = *sliced;
    TuningStats stats = TuneKernel(&work, cost, rc, options);
    benchmark::DoNotOptimize(stats);
  }
}
BENCHMARK(BM_TuneKernelMha)->Arg(0)->Arg(1);

// Trace-driven memory simulation of one lowered MHA kernel with the
// reuse-distance streaming shortcut off (Arg 0) and on (Arg 1).
void BM_MemorySimKernel(benchmark::State& state) {
  Graph g = BuildMha(32 * 12, 1024, 1024, 64);
  ResourceConfig rc = ResourceConfig::FromArch(AmpereA100());
  auto sliced = ResourceAwareSlicing(g, rc);
  SF_CHECK(sliced.ok());
  AddressMap am;
  KernelSpec spec = LowerSchedule(sliced->schedule, &am);
  for (auto _ : state) {
    MemorySim sim(AmpereA100());
    sim.set_streaming_shortcut(state.range(0) != 0);
    ExecutionReport rep = sim.Run({spec});
    benchmark::DoNotOptimize(rep);
  }
}
BENCHMARK(BM_MemorySimKernel)->Arg(0)->Arg(1);

void BM_CompileBertModel(benchmark::State& state) {
  ModelGraph model = BuildModel(GetModelConfig(ModelKind::kBert, 32, 512));
  for (auto _ : state) {
    CompilerEngine engine{CompileOptions(AmpereA100())};
    auto compiled = engine.CompileModel(model);
    benchmark::DoNotOptimize(compiled);
  }
}
BENCHMARK(BM_CompileBertModel);

}  // namespace
}  // namespace spacefusion

int main(int argc, char** argv) {
  spacefusion::SetLogThreshold(spacefusion::LogLevel::kWarning);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
