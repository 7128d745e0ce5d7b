// Reproduces paper Table 6: fusion patterns analysis. Counts the distinct
// fused subgraphs containing at least two All-to-One mappings discovered by
// SpaceFusion, NNFusion (Welder policy: tile-graph fusion, no dependency
// transformation) and BladeDISC (AStitch policy: memory-intensive stitching)
// across 14 compiled evaluation instances from 9 model/structure types,
// de-duplicated by operator topology and split into compute-intensive-only
// (CI), memory-intensive-only (MI), and mixed CI+MI patterns.
//
// Paper reference: SpaceFusion 50 / NNFusion 30 / BladeDISC 14 patterns;
// CI-only 5/3/0, MI-only 15/14/14, CI+MI 30/13/0.
#include <set>

#include "bench/bench_util.h"
#include "src/graph/builder.h"
#include "src/schedule/pipeline.h"

namespace spacefusion {
namespace {

struct PatternCounter {
  std::set<std::uint64_t> seen;
  FusionPatternStats stats;

  void Count(const Graph& kernel_graph) {
    int a2o = 0;
    bool ci = false, mi = false;
    for (const Op& op : kernel_graph.ops()) {
      if (op.kind == OpKind::kMatMul || op.kind == OpKind::kReduce) {
        ++a2o;
      }
      (op.compute_intensive() ? ci : mi) = true;
    }
    if (a2o < 2 || !seen.insert(kernel_graph.TopologyHash()).second) {
      return;
    }
    ++stats.total;
    if (ci && mi) {
      ++stats.ci_and_mi;
    } else if (ci) {
      ++stats.ci_only;
    } else {
      ++stats.mi_only;
    }
  }

  // Counts a contiguous op range as one fused kernel (AStitch MI runs).
  void CountRange(const Graph& graph, int begin, int end) {
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ULL;
    };
    int a2o = 0;
    bool ci = false, mi = false;
    for (int i = begin; i < end; ++i) {
      const Op& op = graph.op(i);
      mix(static_cast<std::uint64_t>(op.kind));
      mix(static_cast<std::uint64_t>(op.attrs.unary));
      mix(static_cast<std::uint64_t>(op.attrs.binary));
      mix(static_cast<std::uint64_t>(op.attrs.reduce));
      if (op.kind == OpKind::kMatMul || op.kind == OpKind::kReduce) {
        ++a2o;
      }
      (op.compute_intensive() ? ci : mi) = true;
    }
    if (a2o < 2 || !seen.insert(h).second) {
      return;
    }
    ++stats.total;
    if (ci && mi) {
      ++stats.ci_and_mi;
    } else if (ci) {
      ++stats.ci_only;
    } else {
      ++stats.mi_only;
    }
  }
};

void CountWelder(const Graph& graph, const GpuArch& arch, PatternCounter* counter) {
  SlicingOptions options;
  options.allow_uta = false;
  options.min_block = 16;
  StatusOr<PipelineResult> pipeline =
      RunSlicingPipeline(graph, ResourceConfig::FromArch(arch), options);
  if (!pipeline.ok()) {
    return;
  }
  for (const SlicingResult& kernel : pipeline->candidates.front().kernels) {
    counter->Count(kernel.schedule.graph);
  }
}

// SpaceFusion's fusion space strictly contains the tile-graph space: count
// the fully fused candidates (with UTA), the Sec.-5.3 split candidates, and
// the no-UTA schedules a tile-graph compiler would find.
void CountSpaceFusion(const Graph& graph, const GpuArch& arch, PatternCounter* counter) {
  ResourceConfig rc = ResourceConfig::FromArch(arch);
  for (const Graph& component : SplitConnectedComponents(graph)) {
    StatusOr<PipelineResult> fused = RunSlicingPipeline(component, rc, SlicingOptions());
    if (fused.ok()) {
      for (const ProgramCandidate& candidate : fused->candidates) {
        for (const SlicingResult& kernel : candidate.kernels) {
          counter->Count(kernel.schedule.graph);
        }
      }
    }
    for (const Graph& piece : SplitAtComputeBoundaries(component)) {
      StatusOr<PipelineResult> split = RunSlicingPipeline(piece, rc, SlicingOptions());
      if (split.ok()) {
        for (const SlicingResult& kernel : split->candidates.front().kernels) {
          counter->Count(kernel.schedule.graph);
        }
      }
    }
    CountWelder(component, arch, counter);
  }
}

void CountAStitch(const Graph& graph, PatternCounter* counter) {
  const int n = static_cast<int>(graph.ops().size());
  int i = 0;
  while (i < n) {
    if (graph.op(i).kind == OpKind::kMatMul) {
      ++i;  // CI singleton: never a multi-reduction fused pattern
      continue;
    }
    int j = i;
    while (j < n && graph.op(j).kind != OpKind::kMatMul) {
      ++j;
    }
    counter->CountRange(graph, i, j);
    i = j;
  }
}

void Run() {
  PrintHeader("Table 6: Fusion patterns analysis (14 compiled instances, 9 structure types)");
  GpuArch arch = AmpereA100();

  // The 14 evaluation instances: 5 models x {batch 1, 32} + 4 subgraphs.
  std::vector<ModelGraph> models;
  for (ModelKind kind : AllModelKinds()) {
    for (std::int64_t batch : {1, 32}) {
      std::int64_t seq = kind == ModelKind::kViT ? 224 : 512;
      models.push_back(BuildModel(GetModelConfig(kind, batch, seq)));
    }
  }
  std::vector<Graph> subgraphs;
  // A pure GEMM chain (low-rank bottleneck): the CI-ops-only fusion row.
  {
    GraphBuilder b("gemm_chain");
    TensorId x = b.Input("x", Shape({4096, 256}));
    TensorId w1 = b.Weight("w1", Shape({256, 64}));
    TensorId w2 = b.Weight("w2", Shape({64, 256}));
    b.MarkOutput(b.MatMul(b.MatMul(x, w1), w2));
    subgraphs.push_back(b.Build());
  }
  subgraphs.push_back(BuildMlp(8, 4096, 256, 256));
  subgraphs.push_back(BuildLstmCell(256, 1024, 1024));
  subgraphs.push_back(BuildLayerNormGraph(8192, 8192));
  subgraphs.push_back(BuildMha(32 * 12, 1024, 1024, 64));

  PatternCounter sf_counter;
  PatternCounter welder;
  PatternCounter astitch;
  for (const ModelGraph& model : models) {
    for (const Subprogram& sub : model.subprograms) {
      CountSpaceFusion(sub.graph, arch, &sf_counter);
      CountWelder(sub.graph, arch, &welder);
      CountAStitch(sub.graph, &astitch);
    }
  }
  for (const Graph& g : subgraphs) {
    CountSpaceFusion(g, arch, &sf_counter);
    CountWelder(g, arch, &welder);
    CountAStitch(g, &astitch);
  }
  FusionPatternStats sf = sf_counter.stats;

  PrintSeriesHeader("patterns (>=2 All-to-Ones)", {"SpaceFusion", "NNFusion", "BladeDISC"});
  PrintRow("# discovered", {static_cast<double>(sf.total), static_cast<double>(welder.stats.total),
                            static_cast<double>(astitch.stats.total)},
           "%12.0f");
  PrintRow("# CI ops only", {static_cast<double>(sf.ci_only),
                             static_cast<double>(welder.stats.ci_only),
                             static_cast<double>(astitch.stats.ci_only)},
           "%12.0f");
  PrintRow("# MI ops only", {static_cast<double>(sf.mi_only),
                             static_cast<double>(welder.stats.mi_only),
                             static_cast<double>(astitch.stats.mi_only)},
           "%12.0f");
  PrintRow("# CI and MI ops", {static_cast<double>(sf.ci_and_mi),
                               static_cast<double>(welder.stats.ci_and_mi),
                               static_cast<double>(astitch.stats.ci_and_mi)},
           "%12.0f");
  std::printf("\nPaper reference: 50/30/14 total; CI 5/3/0; MI 15/14/14; CI+MI 30/13/0.\n"
              "The key property reproduced: only SpaceFusion fuses across CI and MI operators\n"
              "when dependency transformation is required; AStitch never fuses CI ops at all.\n");
}

}  // namespace
}  // namespace spacefusion

int main() {
  spacefusion::SetLogThreshold(spacefusion::LogLevel::kWarning);
  spacefusion::Run();
  return 0;
}
