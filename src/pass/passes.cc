// The Fig. 9 compile pipeline, one pass per phase. Behavior (selected
// schedules, tuning statistics, metric/span names) is deterministic:
// pieces, candidates and kernels are visited in order, and the argmin over
// candidates uses strict less-than (first wins).
#include <algorithm>

#include "src/analysis/race_analyzer.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/pass/pass.h"
#include "src/schedule/lowering.h"
#include "src/schedule/partitioner.h"
#include "src/support/logging.h"

namespace spacefusion {
namespace {

// Keeps one checker run's findings (warnings included) on the state for the
// CompileReport; any error fails the pass with `code` and a Status that
// renders this run's diagnostics.
Status RecordDiagnostics(DiagnosticReport report, StatusCode code, CompilationState* state) {
  Status status = report.ToStatus(code);
  state->diagnostics.Merge(std::move(report));
  return status;
}

// Allocates one CompiledSubprogram slot per candidate program (Sec. 5.3),
// shared by the tuning/lowering/estimation passes.
void EnsureCandidateSlots(CompilationState* state) {
  if (state->candidates.size() == state->pipeline.candidates.size()) {
    return;
  }
  state->candidates.assign(state->pipeline.candidates.size(), CompiledSubprogram{});
  for (CompiledSubprogram& candidate : state->candidates) {
    candidate.candidate_programs = static_cast<int>(state->pipeline.candidates.size());
  }
}

// Phase boundary 1 (entry): the input graph. Rejecting a malformed graph
// here — with structured diagnostics — beats an SF_CHECK abort deep in
// slicing.
class BuildSmgPass : public Pass {
 public:
  const char* name() const override { return "BuildSmg"; }

  Status VerifyBefore(CompilationState* state) override {
    ScopedSpan verify_span("verify.graph", "verify");
    DiagnosticReport report;
    report.SetContext(state->graph->name());
    VerifyGraph(*state->graph, &report);
    verify_span.Arg("diagnostics", static_cast<std::int64_t>(report.diagnostics().size()));
    if (!report.ok()) {
      SF_COUNTER_ADD("verify.rejected_inputs", 1);
    }
    return RecordDiagnostics(std::move(report), StatusCode::kInvalidArgument, state);
  }

  Status Run(CompilationState* state) override {
    // Program pre-processing: independent chains (e.g. the three projections
    // of QKV) become their own fused SMGs; fusing them would build a fused
    // space over unrelated dimensions.
    state->components = SplitConnectedComponents(*state->graph);
    state->component_smgs.clear();
    for (const Graph& component : state->components) {
      SF_ASSIGN_OR_RETURN(SmgBuildResult built, BuildSmg(component));
      state->component_smgs.push_back(std::move(built));
    }
    return Status::Ok();
  }
};

class SlicingPipelinePass : public Pass {
 public:
  const char* name() const override { return "SlicingPipeline"; }

  Status Run(CompilationState* state) override {
    SlicingOptions slicing;
    slicing.enable_temporal = state->options->enable_temporal_slicing;
    const ResourceConfig& rc = state->rc;
    ScopedSpan pipeline_span("compiler.pipeline");
    const std::vector<Graph>& components = state->components;

    // Concatenates per-graph pipelines into one candidate program, in piece
    // order; the first failing piece fails the candidate.
    auto compile_pieces = [&](const std::vector<Graph>& pieces) -> StatusOr<ProgramCandidate> {
      ProgramCandidate candidate;
      for (const Graph& piece : pieces) {
        SF_ASSIGN_OR_RETURN(PipelineResult part, RunSlicingPipeline(piece, rc, slicing));
        for (SlicingResult& kernel : part.candidates.front().kernels) {
          candidate.kernels.push_back(std::move(kernel));
        }
        candidate.partition_rounds += part.candidates.front().partition_rounds;
      }
      return candidate;
    };

    if (components.size() == 1) {
      SF_ASSIGN_OR_RETURN(state->pipeline, RunSlicingPipeline(*state->graph, rc, slicing));
    } else {
      SF_ASSIGN_OR_RETURN(ProgramCandidate fused, compile_pieces(components));
      state->pipeline.candidates.push_back(std::move(fused));
    }

    // Sec. 5.3 candidate exploration: the maximally fused program competes
    // against a conservatively split one (matmuls isolated, MI runs fused) —
    // fusion across giant-weight GEMM chains is not always profitable, and
    // the tuner decides by measurement.
    {
      std::vector<Graph> split_pieces;
      for (const Graph& component : components) {
        for (Graph& piece : SplitAtComputeBoundaries(component)) {
          split_pieces.push_back(std::move(piece));
        }
      }
      if (split_pieces.size() > components.size()) {
        StatusOr<ProgramCandidate> split = compile_pieces(split_pieces);
        if (split.ok()) {
          state->pipeline.candidates.push_back(std::move(split).value());
        }
      }
    }
    pipeline_span.Arg("candidates", static_cast<std::int64_t>(state->pipeline.candidates.size()));
    return Status::Ok();
  }
};

// Search spaces are enumerated inside the slicing pipeline (schedulability
// and enumeration are one fixpoint); this pass accounts for what came out —
// the candidate-program histogram, the Table 6 fusion-pattern statistics,
// and the total enumerated-config count and enumeration time — and carries
// the kFull sweep over every candidate config as its exit invariant.
class EnumerateConfigsPass : public Pass {
 public:
  const char* name() const override { return "EnumerateConfigs"; }

  Status Run(CompilationState* state) override {
    SF_HISTOGRAM_OBSERVE("compiler.candidate_programs",
                         static_cast<double>(state->pipeline.candidates.size()));
    // Every *discovered* fusion counts toward the pattern statistics, even
    // if tuning ultimately prefers another candidate program (Table 6 counts
    // what the scheduler can fuse, not what it deploys).
    state->enumerated_configs = 0;
    state->enum_cfg_ms = 0.0;
    for (const ProgramCandidate& candidate : state->pipeline.candidates) {
      for (const SlicingResult& kernel : candidate.kernels) {
        state->enumerated_configs += static_cast<std::int64_t>(kernel.configs.size());
        state->enum_cfg_ms += kernel.enum_cfg_ms;
        if (state->fusion != nullptr) {
          state->fusion->Record(kernel.schedule.graph);
        }
      }
    }
    return Status::Ok();
  }

  // Full mode: every candidate program the pipeline enumerated is verified
  // before tuning — each kernel's SMG build, plus slicing legality and
  // memory plan under every enumerated config. Violations here are compiler
  // bugs (the pipeline produced them), hence kInternal.
  Status VerifyAfter(CompilationState* state) override {
    if (state->options->verify != VerifyMode::kFull) {
      return Status::Ok();
    }
    ScopedSpan verify_span("verify.candidates", "verify");
    DiagnosticReport report;
    std::int64_t configs_checked = 0;
    for (const ProgramCandidate& candidate : state->pipeline.candidates) {
      for (const SlicingResult& kernel : candidate.kernels) {
        report.SetContext(kernel.schedule.graph.name());
        VerifyGraph(kernel.schedule.graph, &report);
        VerifySmgBuild(kernel.schedule.graph, kernel.schedule.built, &report);
        for (const ScheduleConfig& config : kernel.configs) {
          SmgSchedule probe = kernel.schedule;
          probe.ApplyConfig(config);
          PlanMemory(&probe, state->rc);
          VerifySlicing(probe, &report);
          VerifyMemoryPlan(probe, state->rc, &report);
          ++configs_checked;
        }
      }
    }
    verify_span.Arg("configs", configs_checked)
        .Arg("diagnostics", static_cast<std::int64_t>(report.diagnostics().size()));
    SF_COUNTER_ADD("verify.candidate_configs_checked", configs_checked);
    return RecordDiagnostics(std::move(report), StatusCode::kInternal, state);
  }
};

class TunePass : public Pass {
 public:
  const char* name() const override { return "Tune"; }

  Status Run(CompilationState* state) override {
    EnsureCandidateSlots(state);
    for (size_t ci = 0; ci < state->pipeline.candidates.size(); ++ci) {
      for (SlicingResult& kernel : state->pipeline.candidates[ci].kernels) {
        TuningStats stats = TuneKernel(&kernel, *state->cost, state->rc, state->options->tuner);
        state->total_tuning_s += stats.simulated_tuning_seconds;
        state->configs_tried += stats.configs_tried;
        state->configs_screened += stats.configs_screened;
        state->configs_transfer_seeded += stats.configs_transfer_seeded;
        state->candidates[ci].tuning.configs_early_quit += stats.configs_early_quit;
        if (stats.transfer_signature != 0 && !stats.admitted_configs.empty()) {
          state->tuned_kernels.push_back(
              {stats.transfer_signature, std::move(stats.admitted_configs)});
        }
      }
    }
    return Status::Ok();
  }
};

// Ablation replacement for Tune (enable_auto_scheduling=false): every
// kernel takes the expert configuration instead of a measured sweep.
class ExpertConfigPass : public Pass {
 public:
  const char* name() const override { return "ExpertConfig"; }

  Status Run(CompilationState* state) override {
    EnsureCandidateSlots(state);
    for (ProgramCandidate& candidate : state->pipeline.candidates) {
      for (SlicingResult& kernel : candidate.kernels) {
        ApplyExpertConfig(&kernel, state->rc);
      }
    }
    return Status::Ok();
  }
};

// Re-derives every kernel's memory plan from its chosen config. PlanMemory
// is a pure function of (schedule, resource config) — the tuner already
// planned the winning config, so this recompute is idempotent — but running
// it as its own pass makes the plan an explicit pipeline artifact and keeps
// the plan correct under pass lists whose config assignment skipped it.
class PlanMemoryPass : public Pass {
 public:
  const char* name() const override { return "PlanMemory"; }

  Status Run(CompilationState* state) override {
    for (ProgramCandidate& candidate : state->pipeline.candidates) {
      for (SlicingResult& kernel : candidate.kernels) {
        PlanMemory(&kernel.schedule, state->rc);
      }
    }
    return Status::Ok();
  }
};

class LowerPass : public Pass {
 public:
  const char* name() const override { return "Lower"; }

  Status Run(CompilationState* state) override {
    EnsureCandidateSlots(state);
    for (size_t ci = 0; ci < state->pipeline.candidates.size(); ++ci) {
      ProgramCandidate& candidate = state->pipeline.candidates[ci];
      CompiledSubprogram& compiled = state->candidates[ci];
      // Lowering stays serial: the AddressMap threads stable simulated
      // addresses through the kernels in execution order.
      AddressMap addresses;
      for (SlicingResult& kernel : candidate.kernels) {
        ScopedSpan lower_span("compiler.lower");
        lower_span.Arg("kernel", kernel.schedule.graph.name());
        KernelSpec spec = LowerSchedule(kernel.schedule, &addresses);
        compiled.program.kernels.push_back(kernel.schedule);
        compiled.kernels.push_back(std::move(spec));
      }
    }
    return Status::Ok();
  }
};

class EstimatePass : public Pass {
 public:
  const char* name() const override { return "Estimate"; }

  Status Run(CompilationState* state) override {
    // Argmin with strict less-than: the first candidate wins ties.
    for (CompiledSubprogram& compiled : state->candidates) {
      {
        ScopedSpan estimate_span("compiler.estimate", "simulate");
        compiled.estimate = state->cost->Estimate(compiled.kernels);
        estimate_span.Arg("time_us", compiled.estimate.time_us);
      }
      if (!state->have_best || compiled.estimate.time_us < state->best.estimate.time_us) {
        state->best = compiled;
        state->have_best = true;
      }
    }
    SF_CHECK(state->have_best);
    return Status::Ok();
  }

  // Phase boundary 2 (exit): the chosen program — per-kernel SMG build,
  // slicing and memory-plan legality, plus inter-kernel dependency order
  // against the source graph. A violation of the tuned result is a compiler
  // bug.
  Status VerifyAfter(CompilationState* state) override {
    return RecordDiagnostics(VerifyCompiledProgram(state->best.program, *state->graph, state->rc),
                             StatusCode::kInternal, state);
  }
};

// Static race/alias analysis (SFV06xx) of the chosen program: every pair of
// blocks the schedule runs concurrently must have disjoint or write-free
// footprints on shared buffers. Races in the tuned result are compiler bugs,
// so findings fail the compile like a verifier violation would.
class AnalyzePass : public Pass {
 public:
  const char* name() const override { return "Analyze"; }

  Status Run(CompilationState* state) override {
    SF_CHECK(state->have_best);
    return RecordDiagnostics(AnalyzeCompiledProgram(state->best.program, *state->graph),
                             StatusCode::kInternal, state);
  }
};

}  // namespace

std::vector<std::unique_ptr<Pass>> BuildCompilePassList(const CompileOptions& options) {
  std::vector<std::unique_ptr<Pass>> passes;
  passes.push_back(std::make_unique<BuildSmgPass>());
  passes.push_back(std::make_unique<SlicingPipelinePass>());
  passes.push_back(std::make_unique<EnumerateConfigsPass>());
  if (options.enable_auto_scheduling) {
    passes.push_back(std::make_unique<TunePass>());
  } else {
    passes.push_back(std::make_unique<ExpertConfigPass>());
  }
  passes.push_back(std::make_unique<PlanMemoryPass>());
  passes.push_back(std::make_unique<LowerPass>());
  passes.push_back(std::make_unique<EstimatePass>());
  if (options.verify == VerifyMode::kFull) {
    passes.push_back(std::make_unique<AnalyzePass>());
  }
  return passes;
}

}  // namespace spacefusion
