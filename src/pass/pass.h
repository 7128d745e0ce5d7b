// Pass-manager compile pipeline (paper Fig. 9 as a declarative pass list).
//
// The compile path — SMG build, resource-aware slicing/partitioning,
// search-space enumeration, tuning, memory planning, lowering, estimation —
// is expressed as typed passes over a CompilationState artifact store. The
// PassManager uniformly applies what each phase used to hand-roll: a trace
// span and run/latency metrics per pass, per-pass wall-clock timings (the
// substrate for CompileTimeBreakdown), phase-boundary verification hooks
// (VerifyMode maps to before/after-pass checks), and the dump-after-pass
// IR-dump facility (PassManagerOptions). Ablation toggles are
// pass-list edits: BuildCompilePassList swaps Tune for ExpertConfig when
// auto-scheduling is disabled.
#ifndef SPACEFUSION_SRC_PASS_PASS_H_
#define SPACEFUSION_SRC_PASS_PASS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/schedule/memory_planner.h"
#include "src/schedule/pipeline.h"
#include "src/sim/cost_model.h"
#include "src/smg/smg_builder.h"
#include "src/support/status.h"
#include "src/support/thread_annotations.h"
#include "src/tuning/tuner.h"
#include "src/verify/verifier.h"

namespace spacefusion {

struct CompileOptions {
  GpuArch arch;
  // Ablation toggles (paper Sec. 6.4):
  //  * enable_temporal_slicing=false               -> Base(SS) / Base+AS
  //  * enable_auto_scheduling=false (expert cfgs)  -> Base(SS) / Base+TS
  // BuildCompilePassList turns these into pass-list edits.
  bool enable_temporal_slicing = true;
  bool enable_auto_scheduling = true;
  // Static IR verification at phase boundaries (src/verify): input graphs
  // are checked at compile entry and the chosen program at compile exit;
  // kFull additionally checks every candidate program and enumerated
  // config, and runs the static race/alias analysis (src/analysis, SFV06xx)
  // of the chosen program at compile exit.
  VerifyMode verify = VerifyMode::kPhase;
  TunerOptions tuner;
  // Shape bucket this compile belongs to (the bucket ShapeKey::Label(),
  // "" for shape-agnostic compiles). Mixed into CompileOptionsDigest only
  // when non-empty — legacy digests are unchanged — and stamped onto
  // persistent cache entries so one bucket's programs can never serve
  // another bucket, even on a fingerprint collision.
  std::string shape_bucket;

  CompileOptions();  // defaults to A100
  explicit CompileOptions(GpuArch a) : arch(std::move(a)) {}
};

// Compile-time breakdown of one subprogram (Table 4's columns). The
// wall-clock columns split the BuildSmg + SlicingPipeline pass time: the
// enumeration column is the time EnumerateConfigs ran (carried on the
// slicing results), and the slicing column is the rest.
struct CompileTimeBreakdown {
  double slicing_ms = 0.0;    // TS.getPriorDim + TS.slice + SS.getDims + SS.slice
  double enum_cfg_ms = 0.0;   // search-space enumeration
  double tuning_s = 0.0;      // emulated measurement time (dominates)
  double total_s() const { return tuning_s + (slicing_ms + enum_cfg_ms) * 1e-3; }
};

struct CompiledSubprogram {
  ScheduledProgram program;          // tuned kernels, in execution order
  std::vector<KernelSpec> kernels;   // lowered specs
  ExecutionReport estimate;          // simulator cost of one execution
  CompileTimeBreakdown compile_time;
  TuningStats tuning;
  int candidate_programs = 1;        // Sec. 5.3 alternatives explored
  // Engine request that produced this result for *this* caller. A program
  // served from the cache carries the id of the request that hit, not of
  // the request that originally compiled it.
  std::string request_id;
  // What this compile contributes to cross-bucket config transfer: one
  // record per tuned kernel (across all candidates). In-memory only — not
  // serialized into .sfpc blobs, so persisted programs stay byte-identical
  // to the pre-transfer format.
  std::vector<TunedKernelRecord> tuned_kernels;
};

// Distinct fusion patterns discovered across compilations (Table 6).
struct FusionPatternStats {
  int total = 0;
  int ci_only = 0;
  int mi_only = 0;
  int ci_and_mi = 0;
};

// Thread-safe Table 6 accounting: fused subgraphs with >= 2 All-to-One
// mappings, deduplicated by operator topology. Shared by every compile an
// engine serves, so Record may be called from concurrent requests.
class FusionPatternRecorder {
 public:
  void Record(const Graph& kernel_graph);
  FusionPatternStats stats() const;

 private:
  mutable Mutex mu_;
  FusionPatternStats stats_ SF_GUARDED_BY(mu_);
  std::map<std::uint64_t, bool> seen_patterns_ SF_GUARDED_BY(mu_);
};

// The artifact store passes read and write. Inputs (graph, options, cost
// model, caches) are non-owning pointers wired up by the engine; artifacts
// accumulate as the pass list runs.
struct CompilationState {
  // --- inputs -----------------------------------------------------------
  const Graph* graph = nullptr;
  const CompileOptions* options = nullptr;
  ResourceConfig rc;
  const CostModel* cost = nullptr;
  FusionPatternRecorder* fusion = nullptr;  // may be null (no Table 6 stats)

  // --- artifacts --------------------------------------------------------
  // BuildSmg: weakly-connected components and their fused SMGs.
  std::vector<Graph> components;
  std::vector<SmgBuildResult> component_smgs;
  // SlicingPipeline: candidate programs (fused + Sec. 5.3 split).
  PipelineResult pipeline;
  // EnumerateConfigs: total enumerated configs across candidates, and the
  // wall-clock their enumeration took.
  std::int64_t enumerated_configs = 0;
  double enum_cfg_ms = 0.0;
  // Tune/ExpertConfig + PlanMemory + Lower + Estimate: per-candidate
  // compiled results, then the argmin winner.
  std::vector<CompiledSubprogram> candidates;
  CompiledSubprogram best;
  bool have_best = false;
  // Tuning totals folded across candidates in deterministic kernel order.
  double total_tuning_s = 0.0;
  int configs_tried = 0;
  int configs_screened = 0;
  int configs_transfer_seeded = 0;
  // Per-kernel transfer records (signature + admitted configs best-first),
  // appended by TunePass in deterministic candidate/kernel order.
  std::vector<TunedKernelRecord> tuned_kernels;
  // Every verifier and race-analyzer finding, warnings included, in the
  // order the checkers ran. The engine copies them into the request's
  // CompileReport whether the compile succeeds or fails.
  DiagnosticReport diagnostics;

  // Renders the artifacts present so far (for dump-after-pass).
  std::string DumpArtifacts() const;
};

// One compile pass. `name()` must return a string literal (it is used in
// span/metric names). Verify hooks run only when options->verify != kOff;
// a pass that has no boundary invariant inherits the Ok default.
class Pass {
 public:
  virtual ~Pass() = default;
  virtual const char* name() const = 0;
  virtual Status Run(CompilationState* state) = 0;
  virtual Status VerifyBefore(CompilationState* state) {
    (void)state;
    return Status::Ok();
  }
  virtual Status VerifyAfter(CompilationState* state) {
    (void)state;
    return Status::Ok();
  }
};

struct PassTiming {
  std::string pass;
  double ms = 0.0;      // wall clock
  // Process CPU time (std::clock) spent while the pass ran; approximate
  // when other requests compile concurrently in the same process.
  double cpu_ms = 0.0;
};

// True when `pass_name` matches a dump-after-pass spec: "all" (or "*")
// matches every pass, otherwise a comma-separated list of pass names is
// matched case-sensitively. Empty spec matches nothing.
bool PassDumpRequested(const std::string& dump_spec, const char* pass_name);

struct PassManagerOptions {
  // Which passes to dump artifacts after (a PassDumpRequested spec; empty
  // dumps nothing).
  std::string dump_after_pass;
  // Where dumps go; default writes to stderr.
  std::function<void(const std::string& pass_name, const std::string& text)> dump_sink;

  PassManagerOptions();
};

// Runs a pass list over a CompilationState. Each pass gets a steady-clock
// timing, a "pass.<name>" trace span, and pass.<name>.{runs,ms} metrics.
class PassManager {
 public:
  explicit PassManager(std::vector<std::unique_ptr<Pass>> passes,
                       PassManagerOptions options = PassManagerOptions());

  Status Run(CompilationState* state);

  // Per-pass wall-clock timings of the last Run, in list order.
  const std::vector<PassTiming>& timings() const { return timings_; }
  // Timing of one pass by name (0 when the pass did not run).
  double PassMs(const std::string& pass_name) const;

  const std::vector<std::unique_ptr<Pass>>& passes() const { return passes_; }

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
  PassManagerOptions options_;
  std::vector<PassTiming> timings_;
};

// The Fig. 9 compile pipeline as a pass list:
//   BuildSmg, SlicingPipeline, EnumerateConfigs, Tune, PlanMemory, Lower,
//   Estimate
// with Tune replaced by ExpertConfig when auto-scheduling is disabled, and
// Analyze appended under verify == kFull.
std::vector<std::unique_ptr<Pass>> BuildCompilePassList(const CompileOptions& options);

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_PASS_PASS_H_
