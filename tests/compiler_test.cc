// Compiler and tuner tests: end-to-end compilation, compile caching,
// fusion-pattern statistics, ablation variants, and numerical validation of
// tuned, compiled programs.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/core/spacefusion.h"
#include "src/schedule/lowering.h"
#include "src/tuning/tuner.h"

namespace spacefusion {
namespace {

CompilerEngine MakeCompiler(GpuArch arch = AmpereA100()) {
  return CompilerEngine{CompileOptions(std::move(arch))};
}

TEST(CompilerTest, MhaCompilesToOneFusedKernel) {
  CompilerEngine compiler = MakeCompiler();
  auto compiled = compiler.Compile(BuildMha(8, 512, 512, 64));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ(compiled->kernels.size(), 1u);
  EXPECT_GT(compiled->estimate.time_us, 0);
  EXPECT_GT(compiled->tuning.configs_tried, 0);
}

TEST(CompilerTest, CompiledMhaIsNumericallyExact) {
  CompilerEngine compiler = MakeCompiler();
  Graph g = BuildMha(3, 32, 96, 16);
  auto compiled = compiler.Compile(g);
  ASSERT_TRUE(compiled.ok());

  TensorEnv inputs = MakeGraphInputs(g, 21);
  TensorEnv ref = inputs;
  ASSERT_TRUE(RunReference(g, &ref).ok());
  TensorEnv outs;
  ASSERT_TRUE(RunScheduledProgram(compiled->program, g, inputs, &outs).ok());
  EXPECT_LT(MaxRelDiff(outs[static_cast<size_t>(g.OutputIds()[0])],
                       ref[static_cast<size_t>(g.OutputIds()[0])]),
            5e-3f);
}

class CompiledSubgraphNumericsTest : public ::testing::TestWithParam<int> {};

TEST_P(CompiledSubgraphNumericsTest, TunedProgramMatchesReference) {
  Graph g = [&]() {
    switch (GetParam()) {
      case 0:
        return BuildMlp(3, 48, 32, 32);
      case 1:
        return BuildLstmCell(16, 24, 24);
      case 2:
        return BuildLayerNormGraph(24, 96);
      case 3:
        return BuildFfn(24, 48, 96, UnaryKind::kGelu, NormKind::kLayerNorm);
      case 4:
        return BuildSwigluFfn(24, 48, 96);
      case 5:
        return BuildAttnOut(24, 48, NormKind::kLayerNorm);
      default:
        return BuildQkvProj(24, 48, 48);
    }
  }();
  CompilerEngine compiler = MakeCompiler();
  auto compiled = compiler.Compile(g);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  TensorEnv inputs = MakeGraphInputs(g, 31);
  TensorEnv ref = inputs;
  ASSERT_TRUE(RunReference(g, &ref).ok());
  TensorEnv outs;
  ASSERT_TRUE(RunScheduledProgram(compiled->program, g, inputs, &outs).ok());
  for (TensorId out : g.OutputIds()) {
    EXPECT_LT(MaxRelDiff(outs[static_cast<size_t>(out)], ref[static_cast<size_t>(out)]), 5e-3f)
        << g.name();
  }
}

INSTANTIATE_TEST_SUITE_P(Subgraphs, CompiledSubgraphNumericsTest, ::testing::Range(0, 7));

TEST(CompilerTest, CacheHitsForRepeatedSubprograms) {
  CompilerEngine compiler = MakeCompiler();
  Graph g = BuildMha(4, 128, 128, 32);
  auto first = compiler.Compile(g);
  ASSERT_TRUE(first.ok());
  auto second = compiler.Compile(g);
  ASSERT_TRUE(second.ok());
  // Cached: identical estimates, no extra tuning.
  EXPECT_EQ(first->estimate.time_us, second->estimate.time_us);
}

TEST(CompilerTest, ModelCompilationCompilesUniqueSubprogramsOnce) {
  CompilerEngine compiler = MakeCompiler();
  ModelGraph bert = BuildModel(GetModelConfig(ModelKind::kBert, 1, 128));
  auto compiled = compiler.CompileModel(bert);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ(compiled->unique_subprograms.size(), 4u);  // qkv, mha, attn_out, ffn
  EXPECT_EQ(compiled->cache_hits, 0);  // repeats folded into repeat counts
  EXPECT_GT(compiled->total.time_us, 0);
}

TEST(CompilerTest, AlbertBenefitsFromCompileCache) {
  // ALBERT's layers share weights: the model is literally the same
  // subprogram repeated, compiled once (paper Sec. 5 pre-processing).
  CompilerEngine compiler = MakeCompiler();
  ModelGraph albert = BuildModel(GetModelConfig(ModelKind::kAlbert, 1, 128));
  auto compiled = compiler.CompileModel(albert);
  ASSERT_TRUE(compiled.ok());
  std::int64_t layer_count = 0;
  for (const Subprogram& sub : albert.subprograms) {
    layer_count += sub.repeat;
  }
  EXPECT_GT(layer_count, static_cast<std::int64_t>(compiled->unique_subprograms.size()));
}

TEST(CompilerTest, FusionStatsCountMultiReductionPatterns) {
  CompilerEngine compiler = MakeCompiler();
  ASSERT_TRUE(compiler.Compile(BuildMha(4, 128, 128, 32)).ok());
  ASSERT_TRUE(compiler.Compile(BuildLayerNormGraph(64, 128)).ok());
  ASSERT_TRUE(compiler.Compile(BuildMlp(3, 64, 32, 32)).ok());
  FusionPatternStats stats = compiler.fusion_stats();
  EXPECT_GE(stats.total, 3);
  EXPECT_GT(stats.ci_and_mi, 0);  // MHA mixes GEMMs with softmax
  EXPECT_GT(stats.mi_only, 0);    // LayerNorm
  EXPECT_EQ(stats.total, stats.ci_only + stats.mi_only + stats.ci_and_mi);

  // Same topology at other shapes must not add new patterns.
  int before = compiler.fusion_stats().total;
  ASSERT_TRUE(compiler.Compile(BuildMha(8, 256, 256, 64)).ok());
  EXPECT_EQ(compiler.fusion_stats().total, before);
}

TEST(CompilerTest, CompileTimeBreakdownPopulated) {
  CompilerEngine compiler = MakeCompiler();
  auto compiled = compiler.Compile(BuildMha(8, 1024, 1024, 64));
  ASSERT_TRUE(compiled.ok());
  EXPECT_GT(compiled->compile_time.tuning_s, 0.0);  // emulated measurement time
  EXPECT_GE(compiled->compile_time.slicing_ms, 0.0);
}

class AblationVariantTest : public ::testing::TestWithParam<int> {};

TEST_P(AblationVariantTest, VariantsCompileAndOrderSensibly) {
  CompileOptions options{AmpereA100()};
  switch (GetParam()) {
    case 0:  // Base(SS)
      options.enable_temporal_slicing = false;
      options.enable_auto_scheduling = false;
      break;
    case 1:  // Base+AS
      options.enable_temporal_slicing = false;
      break;
    case 2:  // Base+TS
      options.enable_auto_scheduling = false;
      break;
    default:  // full SpaceFusion
      break;
  }
  CompilerEngine compiler{options};
  auto compiled = compiler.Compile(BuildMha(8, 512, 512, 64));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_GT(compiled->estimate.time_us, 0);
}

INSTANTIATE_TEST_SUITE_P(Variants, AblationVariantTest, ::testing::Range(0, 4));

TEST(AblationTest, FullSpaceFusionIsFastest) {
  Graph g = BuildMha(8, 1024, 1024, 64);
  double times[4];
  for (int v = 0; v < 4; ++v) {
    CompileOptions options{AmpereA100()};
    options.enable_temporal_slicing = v == 2 || v == 3;
    options.enable_auto_scheduling = v == 1 || v == 3;
    CompilerEngine compiler{options};
    auto compiled = compiler.Compile(g);
    ASSERT_TRUE(compiled.ok());
    times[v] = compiled->estimate.time_us;
  }
  // Full (3) must not lose to any ablated variant.
  EXPECT_LE(times[3], times[0] * 1.001);
  EXPECT_LE(times[3], times[1] * 1.001);
  EXPECT_LE(times[3], times[2] * 1.001);
}

// --- Tuner --------------------------------------------------------------------

TEST(TunerTest, PicksCostMinimalConfig) {
  Graph g = BuildMha(8, 512, 512, 64);
  ResourceConfig rc = ResourceConfig::FromArch(AmpereA100());
  StatusOr<SlicingResult> sliced = ResourceAwareSlicing(g, rc);
  ASSERT_TRUE(sliced.ok());
  CostModel cost(AmpereA100());
  TuningStats stats = TuneKernel(&*sliced, cost, rc);
  // Screening is on by default: every config is scored by stage 1, only the
  // admitted subset reaches full fidelity — and the winner must still be the
  // global optimum (checked against the exhaustive sweep below).
  EXPECT_EQ(stats.configs_screened, static_cast<int>(sliced->configs.size()));
  EXPECT_GT(stats.configs_tried, 0);
  EXPECT_LT(stats.configs_tried, static_cast<int>(sliced->configs.size()));
  EXPECT_GT(stats.best_time_us, 0);

  // No config may beat the chosen one.
  AddressMap am;
  double best = stats.best_time_us;
  for (const ScheduleConfig& c : sliced->configs) {
    sliced->schedule.ApplyConfig(c);
    PlanMemory(&sliced->schedule, rc);
    AddressMap probe;
    KernelSpec spec = LowerSchedule(sliced->schedule, &probe);
    EXPECT_GE(cost.EstimateKernel(spec).time_us, best - 1e-9);
  }
  (void)am;
}

TEST(TunerTest, EarlyQuitSavesMeasurementTime) {
  Graph g = BuildMha(8, 1024, 1024, 64);
  ResourceConfig rc = ResourceConfig::FromArch(AmpereA100());
  CostModel cost(AmpereA100());

  StatusOr<SlicingResult> a = ResourceAwareSlicing(g, rc);
  StatusOr<SlicingResult> b = ResourceAwareSlicing(g, rc);
  ASSERT_TRUE(a.ok() && b.ok());

  TunerOptions with_quit;
  TunerOptions without_quit;
  without_quit.enable_early_quit = false;
  TuningStats quick = TuneKernel(&*a, cost, rc, with_quit);
  TuningStats slow = TuneKernel(&*b, cost, rc, without_quit);
  EXPECT_LT(quick.simulated_tuning_seconds, slow.simulated_tuning_seconds);
  EXPECT_GT(quick.configs_early_quit, 0);
  EXPECT_EQ(quick.best_time_us, slow.best_time_us);  // same winner
}

// One CompilerEngine must serve concurrent Compile calls (run under TSan
// by the concurrency CI job).
TEST(CompilerTest, ConcurrentCompileOnOneInstance) {
  CompilerEngine compiler = MakeCompiler();
  constexpr int kThreads = 6;
  std::vector<std::string> fingerprints(kThreads);
  std::vector<Status> statuses(kThreads, Status::Ok());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Graph g = t % 2 == 0 ? BuildMha(4, 128, 128, 32) : BuildMlp(2, 64, 64, 64);
      auto compiled = compiler.Compile(g);
      if (!compiled.ok()) {
        statuses[static_cast<size_t>(t)] = compiled.status();
        return;
      }
      std::string fp;
      for (const SmgSchedule& kernel : compiled->program.kernels) {
        fp += kernel.ToString();
      }
      fingerprints[static_cast<size_t>(t)] = fp;
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(statuses[static_cast<size_t>(t)].ok())
        << statuses[static_cast<size_t>(t)].ToString();
  }
  // All threads that compiled the same graph selected the same program.
  for (int t = 2; t < kThreads; ++t) {
    EXPECT_EQ(fingerprints[static_cast<size_t>(t)], fingerprints[static_cast<size_t>(t % 2)]);
  }
  EXPECT_EQ(compiler.cache_stats().hits + compiler.cache_stats().misses, kThreads);
}

TEST(TunerTest, ExpertConfigPrefersTemporalAnd64Tiles) {
  Graph g = BuildMha(8, 1024, 1024, 64);
  ResourceConfig rc = ResourceConfig::FromArch(AmpereA100());
  StatusOr<SlicingResult> sliced = ResourceAwareSlicing(g, rc);
  ASSERT_TRUE(sliced.ok());
  ApplyExpertConfig(&*sliced, rc);
  EXPECT_TRUE(sliced->schedule.has_temporal);
  EXPECT_GT(sliced->schedule.NumIntraBlocks(), 1);
}

}  // namespace
}  // namespace spacefusion
