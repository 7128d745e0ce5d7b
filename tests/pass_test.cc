// Tests for the pass-manager compile pipeline (src/pass): pass-list
// construction and ablation edits, run ordering and error short-circuiting,
// per-pass timings feeding CompileTimeBreakdown, verify hooks at phase
// boundaries, and the dump-after-pass facility.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/engine.h"
#include "src/graph/subgraphs.h"
#include "src/obs/metrics.h"
#include "src/obs/report.h"
#include "src/pass/pass.h"
#include "src/schedule/memory_planner.h"

namespace spacefusion {
namespace {

std::vector<std::string> PassNames(const std::vector<std::unique_ptr<Pass>>& passes) {
  std::vector<std::string> names;
  for (const std::unique_ptr<Pass>& pass : passes) {
    names.push_back(pass->name());
  }
  return names;
}

TEST(PassListTest, DefaultListIsTheFig9Pipeline) {
  CompileOptions options;
  std::vector<std::string> names = PassNames(BuildCompilePassList(options));
  std::vector<std::string> expected = {"BuildSmg", "SlicingPipeline", "EnumerateConfigs",
                                       "Tune",     "PlanMemory",      "Lower",
                                       "Estimate"};
  EXPECT_EQ(names, expected);
}

TEST(PassListTest, DisablingAutoSchedulingSwapsTuneForExpertConfig) {
  CompileOptions options;
  options.enable_auto_scheduling = false;
  std::vector<std::string> names = PassNames(BuildCompilePassList(options));
  std::vector<std::string> expected = {"BuildSmg", "SlicingPipeline", "EnumerateConfigs",
                                       "ExpertConfig", "PlanMemory", "Lower", "Estimate"};
  EXPECT_EQ(names, expected);
}

TEST(PassListTest, FullVerifyAppendsAnalyze) {
  CompileOptions options;
  options.verify = VerifyMode::kFull;
  std::vector<std::string> names = PassNames(BuildCompilePassList(options));
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.back(), "Analyze");

  options.verify = VerifyMode::kPhase;
  names = PassNames(BuildCompilePassList(options));
  ASSERT_FALSE(names.empty());
  EXPECT_NE(names.back(), "Analyze");
}

// --- PassManager mechanics ------------------------------------------------

class RecordingPass : public Pass {
 public:
  RecordingPass(const char* name, std::vector<std::string>* log, Status result = Status::Ok())
      : name_(name), log_(log), result_(std::move(result)) {}
  const char* name() const override { return name_; }
  Status Run(CompilationState* state) override {
    (void)state;
    log_->push_back(name_);
    return result_;
  }

 private:
  const char* name_;
  std::vector<std::string>* log_;
  Status result_;
};

CompilationState MinimalState(const Graph* graph, const CompileOptions* options) {
  CompilationState state;
  state.graph = graph;
  state.options = options;
  state.rc = ResourceConfig::FromArch(options->arch);
  return state;
}

TEST(PassManagerTest, RunsPassesInOrderAndTimesEach) {
  std::vector<std::string> log;
  std::vector<std::unique_ptr<Pass>> passes;
  passes.push_back(std::make_unique<RecordingPass>("A", &log));
  passes.push_back(std::make_unique<RecordingPass>("B", &log));
  passes.push_back(std::make_unique<RecordingPass>("C", &log));

  Graph g = BuildMlp(1, 8, 8, 8);
  CompileOptions options;
  CompilationState state = MinimalState(&g, &options);
  PassManager manager(std::move(passes));
  ASSERT_TRUE(manager.Run(&state).ok());

  EXPECT_EQ(log, (std::vector<std::string>{"A", "B", "C"}));
  ASSERT_EQ(manager.timings().size(), 3u);
  EXPECT_EQ(manager.timings()[0].pass, "A");
  EXPECT_EQ(manager.timings()[2].pass, "C");
  for (const PassTiming& timing : manager.timings()) {
    EXPECT_GE(timing.ms, 0.0);
  }
}

TEST(PassManagerTest, ErrorStopsThePipeline) {
  std::vector<std::string> log;
  std::vector<std::unique_ptr<Pass>> passes;
  passes.push_back(std::make_unique<RecordingPass>("A", &log));
  passes.push_back(
      std::make_unique<RecordingPass>("B", &log, Internal("pass B failed")));
  passes.push_back(std::make_unique<RecordingPass>("C", &log));

  Graph g = BuildMlp(1, 8, 8, 8);
  CompileOptions options;
  CompilationState state = MinimalState(&g, &options);
  PassManager manager(std::move(passes));
  Status status = manager.Run(&state);

  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(log, (std::vector<std::string>{"A", "B"}));  // C never ran
  EXPECT_EQ(manager.timings().size(), 2u);               // failed pass is still timed
}

TEST(PassManagerTest, PassMetricsAreRecorded) {
  MetricsRegistry::Global().Reset();
  std::vector<std::string> log;
  std::vector<std::unique_ptr<Pass>> passes;
  passes.push_back(std::make_unique<RecordingPass>("MetricsProbe", &log));

  Graph g = BuildMlp(1, 8, 8, 8);
  CompileOptions options;
  CompilationState state = MinimalState(&g, &options);
  PassManager manager(std::move(passes));
  ASSERT_TRUE(manager.Run(&state).ok());

  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.counter("pass.MetricsProbe.runs"), 1);
}

// --- The real pipeline through PassManager --------------------------------

// Drives the full compile pass list over a CompilationState by hand (the
// way CompilerEngine does) and checks the artifacts land in the store.
TEST(CompilePipelineTest, FullPassListProducesBestProgram) {
  Graph g = BuildMha(4, 64, 64, 32);
  CompileOptions options;
  CostModel cost(options.arch);
  CompilationState state = MinimalState(&g, &options);
  state.cost = &cost;

  PassManager manager(BuildCompilePassList(options));
  ASSERT_TRUE(manager.Run(&state).ok());

  EXPECT_FALSE(state.components.empty());
  EXPECT_EQ(state.components.size(), state.component_smgs.size());
  EXPECT_FALSE(state.pipeline.candidates.empty());
  EXPECT_GT(state.enumerated_configs, 0);
  EXPECT_EQ(state.candidates.size(), state.pipeline.candidates.size());
  ASSERT_TRUE(state.have_best);
  EXPECT_FALSE(state.best.program.kernels.empty());
  EXPECT_GT(state.best.estimate.time_us, 0.0);
  EXPECT_GT(state.total_tuning_s, 0.0);
  // Every pass ran and was timed.
  EXPECT_EQ(manager.timings().size(), 7u);
  EXPECT_GT(manager.PassMs("SlicingPipeline"), 0.0);
  // The enumeration time the slicing results carry (the breakdown
  // substrate) is part of the scheduling passes' wall time.
  EXPECT_GT(state.enum_cfg_ms, 0.0);
  EXPECT_LE(state.enum_cfg_ms, manager.PassMs("BuildSmg") + manager.PassMs("SlicingPipeline"));
}

TEST(CompilePipelineTest, ManualRunMatchesEngineCompile) {
  Graph g = BuildMha(4, 64, 64, 32);
  CompileOptions options;
  CostModel cost(options.arch);
  CompilationState state = MinimalState(&g, &options);
  state.cost = &cost;
  PassManager manager(BuildCompilePassList(options));
  ASSERT_TRUE(manager.Run(&state).ok());

  CompilerEngine engine{CompileOptions()};
  StatusOr<CompiledSubprogram> compiled = engine.Compile(g);
  ASSERT_TRUE(compiled.ok());

  ASSERT_EQ(state.best.program.kernels.size(), compiled->program.kernels.size());
  for (size_t i = 0; i < state.best.program.kernels.size(); ++i) {
    EXPECT_EQ(state.best.program.kernels[i].ToString(), compiled->program.kernels[i].ToString());
  }
  EXPECT_EQ(state.best.estimate.time_us, compiled->estimate.time_us);
  EXPECT_EQ(state.total_tuning_s, compiled->tuning.simulated_tuning_seconds);
}

// Table 4's wall-clock columns split the scheduling passes exactly: slicing
// plus enumeration is the BuildSmg + SlicingPipeline time the request's
// CompileReport records, and enumeration is a part of it.
TEST(CompilePipelineTest, BreakdownDerivesFromPassTimings) {
  class LastReportSink : public ReportSink {
   public:
    void Emit(const CompileReport& report) override { last = report; }
    CompileReport last;
  };
  LastReportSink sink;
  EngineOptions options{CompileOptions()};
  options.report_sink = &sink;
  CompilerEngine engine{options};
  StatusOr<CompiledSubprogram> compiled = engine.Compile(BuildMha(4, 64, 64, 32));
  ASSERT_TRUE(compiled.ok());
  EXPECT_GE(compiled->compile_time.slicing_ms, 0.0);
  EXPECT_GT(compiled->compile_time.enum_cfg_ms, 0.0);
  EXPECT_GT(compiled->compile_time.tuning_s, 0.0);
  EXPECT_GE(compiled->compile_time.total_s(), compiled->compile_time.tuning_s);

  ASSERT_EQ(sink.last.request_id, compiled->request_id);
  double scheduling_ms = 0.0;
  for (const PassReportEntry& pass : sink.last.passes) {
    if (pass.pass == "BuildSmg" || pass.pass == "SlicingPipeline") {
      scheduling_ms += pass.wall_ms;
    }
  }
  EXPECT_NEAR(compiled->compile_time.slicing_ms + compiled->compile_time.enum_cfg_ms,
              scheduling_ms, 1e-9);
  EXPECT_LE(compiled->compile_time.enum_cfg_ms, scheduling_ms);
}

// --- Verify hooks ---------------------------------------------------------

TEST(PassVerifyTest, EntryHookRejectsMalformedGraph) {
  // Unary output shape disagrees with its input: SFV0103 at the BuildSmg
  // entry boundary.
  Graph g("malformed");
  TensorInfo in;
  in.name = "x";
  in.shape = Shape({8, 16});
  in.kind = TensorKind::kInput;
  TensorId x = g.AddTensor(std::move(in));
  TensorInfo out;
  out.name = "y";
  out.shape = Shape({8, 8});
  out.kind = TensorKind::kOutput;
  TensorId y = g.AddTensor(std::move(out));
  Op op;
  op.kind = OpKind::kUnary;
  op.inputs = {x};
  op.output = y;
  op.name = "op";
  g.AddOp(std::move(op));

  CompileOptions options;
  options.verify = VerifyMode::kPhase;
  CompilerEngine engine{options};
  StatusOr<CompiledSubprogram> compiled = engine.Compile(g);
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(compiled.status().message().find("SFV0103"), std::string::npos);
}

TEST(PassVerifyTest, VerifyOffSkipsHooks) {
  // The same malformed graph dies later (or compiles into garbage) without
  // the entry hook; with kOff the manager must not call the hooks at all.
  // Use a *valid* graph and check hook-ordering instead: a pass whose
  // VerifyBefore always fails only fails the run when verification is on.
  class FailingVerifyPass : public Pass {
   public:
    const char* name() const override { return "FailingVerify"; }
    Status Run(CompilationState*) override { return Status::Ok(); }
    Status VerifyBefore(CompilationState*) override { return Internal("hook ran"); }
  };

  Graph g = BuildMlp(1, 8, 8, 8);
  for (VerifyMode mode : {VerifyMode::kOff, VerifyMode::kPhase}) {
    CompileOptions options;
    options.verify = mode;
    CompilationState state = MinimalState(&g, &options);
    std::vector<std::unique_ptr<Pass>> passes;
    passes.push_back(std::make_unique<FailingVerifyPass>());
    PassManager manager(std::move(passes));
    Status status = manager.Run(&state);
    EXPECT_EQ(status.ok(), mode == VerifyMode::kOff);
  }
}

// --- Dump-after-pass ------------------------------------------------------

TEST(PassDumpTest, SpecParsing) {
  EXPECT_FALSE(PassDumpRequested("", "Tune"));
  EXPECT_TRUE(PassDumpRequested("all", "Tune"));
  EXPECT_TRUE(PassDumpRequested("*", "BuildSmg"));
  EXPECT_TRUE(PassDumpRequested("Tune", "Tune"));
  EXPECT_FALSE(PassDumpRequested("Tune", "Lower"));
  EXPECT_TRUE(PassDumpRequested("BuildSmg,Lower", "Lower"));
  EXPECT_TRUE(PassDumpRequested("BuildSmg,Lower", "BuildSmg"));
  EXPECT_FALSE(PassDumpRequested("BuildSmg,Lower", "Tune"));
  EXPECT_FALSE(PassDumpRequested("Tune", "tune"));  // case-sensitive
}

TEST(PassDumpTest, SinkReceivesArtifactsAfterEveryPass) {
  Graph g = BuildMha(4, 64, 64, 32);
  CompileOptions options;
  CostModel cost(options.arch);
  CompilationState state = MinimalState(&g, &options);
  state.cost = &cost;

  std::vector<std::pair<std::string, std::string>> dumps;
  PassManagerOptions pm_options;
  pm_options.dump_after_pass = "all";
  pm_options.dump_sink = [&dumps](const std::string& pass, const std::string& text) {
    dumps.emplace_back(pass, text);
  };
  PassManager manager(BuildCompilePassList(options), std::move(pm_options));
  ASSERT_TRUE(manager.Run(&state).ok());

  ASSERT_EQ(dumps.size(), 7u);
  EXPECT_EQ(dumps.front().first, "BuildSmg");
  EXPECT_EQ(dumps.back().first, "Estimate");
  for (const auto& [pass, text] : dumps) {
    EXPECT_FALSE(text.empty()) << pass;
  }
  // Progressive rendering: the final dump carries the chosen program.
  EXPECT_NE(dumps.back().second.find("best:"), std::string::npos);
}

TEST(PassDumpTest, SingleNameSelectsOnePass) {
  Graph g = BuildMlp(1, 16, 16, 16);
  CompileOptions options;
  CostModel cost(options.arch);
  CompilationState state = MinimalState(&g, &options);
  state.cost = &cost;

  std::vector<std::string> dumped;
  PassManagerOptions pm_options;
  pm_options.dump_after_pass = "SlicingPipeline";
  pm_options.dump_sink = [&dumped](const std::string& pass, const std::string&) {
    dumped.push_back(pass);
  };
  PassManager manager(BuildCompilePassList(options), std::move(pm_options));
  ASSERT_TRUE(manager.Run(&state).ok());
  EXPECT_EQ(dumped, (std::vector<std::string>{"SlicingPipeline"}));
}

// EngineOptions::dump_after_pass reaches every cold compile's PassManager
// (sf-compile's --dump-after-pass); a cache hit runs no pass and dumps
// nothing.
TEST(PassDumpTest, EngineOptionsSpecDumpsEveryColdCompile) {
  EngineOptions options;
  options.dump_after_pass = "Lower,Estimate";
  CompilerEngine engine{options};
  const Graph g = BuildMlp(1, 16, 16, 16);
  ::testing::internal::CaptureStderr();
  ASSERT_TRUE(engine.Compile(g).ok());
  const std::string cold = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(cold.find("=== dump-after-pass: Lower ==="), std::string::npos) << cold;
  EXPECT_NE(cold.find("=== dump-after-pass: Estimate ==="), std::string::npos) << cold;
  EXPECT_EQ(cold.find("=== dump-after-pass: Tune ==="), std::string::npos) << cold;
  ::testing::internal::CaptureStderr();
  ASSERT_TRUE(engine.Compile(g).ok());
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

// --- Ablation equivalence -------------------------------------------------

TEST(PassAblationTest, ExpertConfigListCompilesWithoutTuning) {
  CompileOptions options;
  options.enable_auto_scheduling = false;
  CompilerEngine engine{options};
  StatusOr<CompiledSubprogram> compiled = engine.Compile(BuildMha(4, 64, 64, 32));
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled->tuning.configs_tried, 0);
  EXPECT_EQ(compiled->tuning.simulated_tuning_seconds, 0.0);
  EXPECT_FALSE(compiled->program.kernels.empty());
}

}  // namespace
}  // namespace spacefusion
