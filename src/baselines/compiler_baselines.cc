// Compiler and inference-engine baselines:
//   * AStitch / BladeDISC — stitches memory-intensive ops into fused kernels
//     through shared/global memory; compute-intensive ops stay on cuBLAS.
//   * Welder / NNFusion   — tile-graph scheduling: fuses across operators by
//     aligning tile shapes in the memory hierarchy, but cannot transform
//     dependencies (no UTA) and keeps hardware-aligned tiles (>=16).
//   * TensorRT            — hand-tuned pattern library (fused MHA, fused LN,
//     GEMM+epilogue) picked by graph matching.
//   * Kernl               — Triton kernel library for Transformer patterns.
#include "src/baselines/baseline.h"
#include "src/baselines/patterns.h"
#include "src/schedule/lowering.h"
#include "src/schedule/pipeline.h"
#include "src/sim/cost_model.h"
#include "src/support/logging.h"
#include "src/support/string_util.h"

namespace spacefusion {

namespace {

// ---------------------------------------------------------------------------
// AStitch (BladeDISC)
// ---------------------------------------------------------------------------
class AStitchBaseline : public Baseline {
 public:
  std::string name() const override { return "BladeDISC"; }

  bool Supports(const Graph& graph, const GpuArch& arch) const override {
    // The paper's BladeDISC setup is not fully supported on Hopper.
    return arch.name != "Hopper";
  }

  std::vector<KernelSpec> Plan(const Graph& graph, const GpuArch& arch,
                               AddressMap* addresses) const override {
    std::vector<KernelSpec> kernels;
    // Segment ops into CI singletons and maximal MI runs.
    const int n = static_cast<int>(graph.ops().size());
    int i = 0;
    while (i < n) {
      const Op& op = graph.op(i);
      if (op.kind == OpKind::kMatMul) {
        std::vector<KernelSpec> one = PlanSingleGemm(graph, op, addresses);
        kernels.insert(kernels.end(), one.begin(), one.end());
        ++i;
        continue;
      }
      int j = i;
      while (j < n && graph.op(j).kind != OpKind::kMatMul) {
        ++j;
      }
      kernels.push_back(PlanMiRun(graph, i, j, addresses));
      i = j;
    }
    return kernels;
  }

 private:
  static std::vector<KernelSpec> PlanSingleGemm(const Graph& graph, const Op& op,
                                                AddressMap* addresses) {
    const TensorInfo& a = graph.tensor(op.inputs[0]);
    const TensorInfo& b = graph.tensor(op.inputs[1]);
    const TensorInfo& out = graph.tensor(op.output);
    const Shape& os = out.shape;
    std::int64_t m = os.dim(os.rank() - 2);
    std::int64_t nn = os.dim(os.rank() - 1);
    std::int64_t batch = os.volume() / (m * nn);
    const Shape& as = a.shape;
    std::int64_t k = op.attrs.transpose_a ? as.dim(as.rank() - 2) : as.dim(as.rank() - 1);
    return {MakeGemmKernel(op.name, batch, m, nn, k, DTypeSize(out.dtype), addresses, a.name,
                           b.name, out.name, /*efficiency=*/0.83)};
  }

  // One stitched kernel for the MI ops in [begin, end): intermediates stay
  // on chip; only run-boundary tensors move through global memory.
  static KernelSpec PlanMiRun(const Graph& graph, int begin, int end, AddressMap* addresses) {
    std::vector<bool> produced(graph.tensors().size(), false);
    for (int i = begin; i < end; ++i) {
      produced[static_cast<size_t>(graph.op(i).output)] = true;
    }
    std::vector<NamedBytes> reads;
    std::vector<NamedBytes> writes;
    std::int64_t flops = 0;
    for (int i = begin; i < end; ++i) {
      const Op& op = graph.op(i);
      flops += graph.tensor(op.output).shape.volume();
      for (TensorId in : op.inputs) {
        const TensorInfo& t = graph.tensor(in);
        if (produced[static_cast<size_t>(in)] || t.kind == TensorKind::kConstant) {
          continue;
        }
        bool seen = false;
        for (const NamedBytes& r : reads) {
          if (r.name == t.name) {
            seen = true;
          }
        }
        if (!seen) {
          reads.push_back({t.name, t.bytes(), 1.0, false});
        }
      }
      const TensorInfo& out = graph.tensor(op.output);
      bool escapes = out.kind == TensorKind::kOutput;
      for (OpId consumer : graph.consumers(op.output)) {
        if (consumer >= end) {
          escapes = true;
        }
      }
      if (escapes) {
        writes.push_back({out.name, out.bytes(), 1.0, false});
      }
    }
    return MakeMemoryBoundKernel(StrCat(graph.name(), ".stitched_", begin), reads, writes,
                                 addresses, flops);
  }
};

// ---------------------------------------------------------------------------
// Welder (NNFusion)
// ---------------------------------------------------------------------------
class WelderBaseline : public Baseline {
 public:
  std::string name() const override { return "NNFusion"; }

  bool Supports(const Graph& graph, const GpuArch& arch) const override {
    // The paper's NNFusion setup only runs on Volta.
    return arch.name == "Volta";
  }

  std::vector<KernelSpec> Plan(const Graph& graph, const GpuArch& arch,
                               AddressMap* addresses) const override {
    SlicingOptions options;
    options.allow_uta = false;      // no dependency transformation
    options.min_block = 16;         // hardware-aligned tiles only
    ResourceConfig rc = ResourceConfig::FromArch(arch);
    CostModel cost(arch);

    std::vector<SlicingResult> sliced_kernels;
    for (const Graph& component : SplitConnectedComponents(graph)) {
      StatusOr<PipelineResult> pipeline = RunSlicingPipeline(component, rc, options);
      if (!pipeline.ok()) {
        // Tile-graph scheduling failed outright: fall back to unfused.
        return PlanUnfused(graph, addresses, 0.82);
      }
      for (SlicingResult& kr : pipeline->candidates.front().kernels) {
        sliced_kernels.push_back(std::move(kr));
      }
    }

    std::vector<KernelSpec> kernels;
    for (SlicingResult& kr : sliced_kernels) {
      // Hand-tuned block sizes: best config under the cost model.
      const ScheduleConfig* best = nullptr;
      double best_time = 0.0;
      for (const ScheduleConfig& c : kr.configs) {
        kr.schedule.ApplyConfig(c);
        PlanMemory(&kr.schedule, rc);
        AddressMap probe;
        KernelSpec spec = LowerSchedule(kr.schedule, &probe);
        double t = cost.EstimateKernel(spec).time_us;
        if (best == nullptr || t < best_time) {
          best = &c;
          best_time = t;
        }
      }
      SF_CHECK(best != nullptr);
      kr.schedule.ApplyConfig(*best);
      PlanMemory(&kr.schedule, rc);
      kernels.push_back(LowerSchedule(kr.schedule, addresses));
    }
    return kernels;
  }
};

// ---------------------------------------------------------------------------
// TensorRT / Kernl pattern libraries
// ---------------------------------------------------------------------------
struct EngineProfile {
  std::string name;
  double mha_efficiency;     // fused attention kernel quality
  bool mha_parallel_seq;     // FA2-style parallelism
  double ln_passes;          // fused LN input passes
  double gemm_efficiency;
  bool fuse_gemm_epilogue;
};

class EngineBaseline : public Baseline {
 public:
  explicit EngineBaseline(EngineProfile profile) : profile_(std::move(profile)) {}

  std::string name() const override { return profile_.name; }

  std::vector<KernelSpec> Plan(const Graph& graph, const GpuArch& arch,
                               AddressMap* addresses) const override {
    switch (DetectPattern(graph)) {
      case GraphPattern::kMha:
        return PlanFusedMha(graph, addresses);
      case GraphPattern::kLayerNorm:
        return PlanFusedLn(graph, addresses);
      case GraphPattern::kGemmChain:
        if (profile_.fuse_gemm_epilogue) {
          return MakeCublasLtBaseline()->Plan(graph, arch, addresses);
        }
        return PlanUnfused(graph, addresses, profile_.gemm_efficiency);
      case GraphPattern::kElementwise:
      case GraphPattern::kGeneric:
        return PlanStitchedElementwise(graph, arch, addresses);
    }
    return PlanUnfused(graph, addresses, profile_.gemm_efficiency);
  }

 private:
  std::vector<KernelSpec> PlanFusedMha(const Graph& graph, AddressMap* addresses) const {
    MhaDims d = ExtractMhaDims(graph);
    const std::int64_t eb = 2;
    KernelSpec spec;
    spec.name = StrCat(profile_.name, ".fused_mha");
    spec.grid = profile_.mha_parallel_seq
                    ? d.batch_heads * std::max<std::int64_t>(1, d.seq_q / 128)
                    : d.batch_heads;
    spec.threads_per_block = 256;
    spec.smem_per_block = 48 * 1024;
    spec.regs_per_block_bytes = 128 * 1024;
    spec.flops = 4 * d.batch_heads * d.seq_q * d.seq_kv * d.head_dim;
    spec.compute_efficiency = profile_.mha_efficiency;

    std::int64_t q_bytes = d.batch_heads * d.seq_q * d.head_dim * eb;
    std::int64_t kv_bytes = d.batch_heads * d.seq_kv * d.head_dim * eb;
    int idx = 0;
    for (TensorId in : graph.InputIds()) {
      const TensorInfo& t = graph.tensor(in);
      TensorTraffic r;
      r.tensor = t.name;
      r.unique_bytes = idx == 0 ? q_bytes : kv_bytes;
      r.per_block_bytes = std::max<std::int64_t>(1, r.unique_bytes / std::max<std::int64_t>(
                                                         1, d.batch_heads));
      r.shared_across_blocks = profile_.mha_parallel_seq;
      r.base_address = addresses->Assign(t.name, t.bytes());
      spec.reads.push_back(std::move(r));
      ++idx;
    }
    const TensorInfo& out = graph.tensor(graph.OutputIds().front());
    TensorTraffic w;
    w.tensor = out.name;
    w.unique_bytes = out.bytes();
    w.per_block_bytes = std::max<std::int64_t>(1, out.bytes() / spec.grid);
    w.base_address = addresses->Assign(out.name, w.unique_bytes);
    spec.writes.push_back(std::move(w));
    return {spec};
  }

  std::vector<KernelSpec> PlanFusedLn(const Graph& graph, AddressMap* addresses) const {
    std::vector<NamedBytes> reads;
    std::vector<NamedBytes> writes;
    for (const TensorInfo& t : graph.tensors()) {
      if (t.kind == TensorKind::kInput) {
        reads.push_back({t.name, t.bytes(), profile_.ln_passes, false});
      } else if (t.kind == TensorKind::kWeight) {
        reads.push_back({t.name, t.bytes(), 1.0, true});
      } else if (t.kind == TensorKind::kOutput) {
        writes.push_back({t.name, t.bytes(), 1.0, false});
      }
    }
    return {MakeMemoryBoundKernel(StrCat(profile_.name, ".fused_ln"), reads, writes, addresses,
                                  0)};
  }

  std::vector<KernelSpec> PlanStitchedElementwise(const Graph& graph, const GpuArch& arch,
                                                  AddressMap* addresses) const {
    return AStitchBaseline().Plan(graph, arch, addresses);
  }

  EngineProfile profile_;
};

}  // namespace

std::unique_ptr<Baseline> MakeAStitchBaseline() { return std::make_unique<AStitchBaseline>(); }
std::unique_ptr<Baseline> MakeWelderBaseline() { return std::make_unique<WelderBaseline>(); }

std::unique_ptr<Baseline> MakeTensorRtBaseline() {
  EngineProfile p;
  p.name = "TensorRT";
  p.mha_efficiency = 0.62;
  p.mha_parallel_seq = true;
  p.ln_passes = 1.15;
  p.gemm_efficiency = 0.87;
  p.fuse_gemm_epilogue = true;
  return std::make_unique<EngineBaseline>(std::move(p));
}

std::unique_ptr<Baseline> MakeKernlBaseline() {
  EngineProfile p;
  p.name = "Kernl";
  p.mha_efficiency = 0.55;
  p.mha_parallel_seq = true;
  p.ln_passes = 1.3;
  p.gemm_efficiency = 0.78;
  p.fuse_gemm_epilogue = false;
  return std::make_unique<EngineBaseline>(std::move(p));
}

}  // namespace spacefusion
