// Randomized end-to-end property testing: generate random (but valid)
// operator graphs, compile them with the full SpaceFusion pipeline, execute
// the tuned schedules, and require numerical equivalence with the unfused
// reference. This sweeps slicing decisions, aggregation plans, partitioning
// and component splitting over graph shapes no hand-written test covers.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/analysis/race_analyzer.h"
#include "src/core/spacefusion.h"
#include "src/support/string_util.h"
#include "src/verify/verifier.h"
#include "tests/random_graph.h"

namespace spacefusion {
namespace {

using testing_util::RandomGraph;

class FuzzCompileTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzCompileTest, CompiledProgramMatchesReference) {
  Graph g = RandomGraph(static_cast<std::uint64_t>(GetParam()) * 1000003ULL);
  ASSERT_TRUE(g.Validate().ok());

  CompilerEngine compiler{CompileOptions(AmpereA100())};
  StatusOr<CompiledSubprogram> compiled = compiler.Compile(g);
  ASSERT_TRUE(compiled.ok()) << g.ToString() << "\n" << compiled.status().ToString();

  TensorEnv inputs = MakeGraphInputs(g, 77);
  TensorEnv reference = inputs;
  ASSERT_TRUE(RunReference(g, &reference).ok());
  TensorEnv outputs;
  Status st = RunScheduledProgram(compiled->program, g, inputs, &outputs);
  ASSERT_TRUE(st.ok()) << st.ToString();

  for (TensorId out : g.OutputIds()) {
    float diff = MaxRelDiff(outputs[static_cast<size_t>(out)],
                            reference[static_cast<size_t>(out)]);
    EXPECT_LT(diff, 1e-2f) << "seed " << GetParam() << "\n" << g.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzCompileTest, ::testing::Range(0, 40));

class FuzzArchTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzArchTest, SchedulesAreFeasibleOnEveryArch) {
  Graph g = RandomGraph(static_cast<std::uint64_t>(GetParam()) * 7777ULL + 13);
  for (const GpuArch& arch : AllArchitectures()) {
    CompilerEngine compiler{CompileOptions(arch)};
    StatusOr<CompiledSubprogram> compiled = compiler.Compile(g);
    ASSERT_TRUE(compiled.ok()) << arch.name << "\n" << g.ToString();
    EXPECT_GT(compiled->estimate.time_us, 0.0);
    for (const SmgSchedule& kernel : compiled->program.kernels) {
      EXPECT_LE(kernel.memory.smem_bytes, arch.smem_per_block_max) << arch.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzArchTest, ::testing::Range(0, 12));

// Verifier-seeded fuzzing: every random graph the pipeline accepts must come
// out clean under full verification, and every mutated (broken) graph must be
// rejected with at least one SFV diagnostic — never a crash.
class FuzzVerifyCleanTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzVerifyCleanTest, AcceptedProgramsVerifyClean) {
  Graph g = RandomGraph(static_cast<std::uint64_t>(GetParam()) * 424243ULL + 7);
  CompileOptions options{AmpereA100()};
  options.verify = VerifyMode::kFull;
  CompilerEngine compiler{options};
  // Full mode checks every candidate program and enumerated config along the
  // way; any diagnostic fails the compile.
  StatusOr<CompiledSubprogram> compiled = compiler.Compile(g);
  ASSERT_TRUE(compiled.ok()) << g.ToString() << "\n" << compiled.status().ToString();

  DiagnosticReport report =
      VerifyCompiledProgram(compiled->program, g, ResourceConfig::FromArch(options.arch));
  EXPECT_EQ(report.error_count(), 0) << "seed " << GetParam() << "\n" << report.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzVerifyCleanTest, ::testing::Range(0, 16));

class FuzzVerifyRejectTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzVerifyRejectTest, MutatedGraphsCarryDiagnostics) {
  Graph g = RandomGraph(static_cast<std::uint64_t>(GetParam()) * 90001ULL + 3);

  // Break one invariant, rotating over mutation kinds by seed.
  switch (GetParam() % 3) {
    case 0: {  // declared output shape no longer matches the op semantics
      TensorId victim = g.OutputIds().front();
      std::vector<std::int64_t> dims = g.tensor(victim).shape.dims();
      dims.front() += 1;
      g.tensor(victim).shape = Shape(dims);
      break;
    }
    case 1:  // a produced tensor claims to be a graph input
      g.tensor(g.OutputIds().front()).kind = TensorKind::kInput;
      break;
    case 2:  // a consumed boundary tensor claims a producer it lacks
      g.tensor(g.InputIds().front()).kind = TensorKind::kIntermediate;
      break;
  }

  DiagnosticReport report;
  VerifyGraph(g, &report);
  ASSERT_GE(report.error_count(), 1) << "seed " << GetParam() << "\n" << g.ToString();
  for (const Diagnostic& d : report.diagnostics()) {
    EXPECT_EQ(d.code.rfind("SFV", 0), 0u) << d.ToString();
  }

  // The compiler's entry check rejects the same graph with the SFV codes
  // embedded in the returned status rather than crashing.
  CompilerEngine compiler{CompileOptions(AmpereA100())};
  StatusOr<CompiledSubprogram> compiled = compiler.Compile(g);
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(compiled.status().message().find("SFV"), std::string::npos)
      << compiled.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzVerifyRejectTest, ::testing::Range(0, 18));

// --- Race-analyzer robustness ---------------------------------------------

// The analyzer's contract is "report, never crash": whatever mutation hits
// the schedule — degenerate or huge blocks, truncated memory plans,
// scrambled index tables, dangling dim references — AnalyzeSchedule must
// return normally (findings or not), because it runs on compiler-internal
// state precisely when that state may be wrong.
class FuzzAnalyzerTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzAnalyzerTest, MutatedSchedulesNeverCrashTheAnalyzer) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam()) * 2654435761ULL + 99;
  Graph g = RandomGraph(seed);
  CompilerEngine compiler{CompileOptions(AmpereA100())};
  StatusOr<CompiledSubprogram> compiled = compiler.Compile(g);
  ASSERT_TRUE(compiled.ok()) << g.ToString();

  // Deterministic xorshift stream drives the mutations.
  std::uint64_t rng = seed | 1;
  auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };

  for (int round = 0; round < 24; ++round) {
    ScheduledProgram program = compiled->program;  // fresh copy per round
    for (SmgSchedule& kernel : program.kernels) {
      switch (next() % 8) {
        case 0:
          if (!kernel.spatial.empty()) {
            kernel.spatial[next() % kernel.spatial.size()].block =
                static_cast<std::int64_t>(next() % 3) - 1;  // -1, 0, or 1
          }
          break;
        case 1:
          if (!kernel.spatial.empty()) {
            kernel.spatial[next() % kernel.spatial.size()].block = 1LL << 40;
          }
          break;
        case 2:
          if (!kernel.spatial.empty()) {
            kernel.spatial[next() % kernel.spatial.size()].dim =
                static_cast<DimId>(next() % 64) - 8;
          }
          break;
        case 3:
          if (!kernel.memory.tensor_level.empty()) {
            kernel.memory.tensor_level.resize(next() % kernel.memory.tensor_level.size());
          }
          break;
        case 4:
          if (!kernel.built.tensor_space.empty()) {
            kernel.built.tensor_space[next() % kernel.built.tensor_space.size()] =
                static_cast<SpaceId>(next() % 128) - 16;
          }
          break;
        case 5:
          if (!kernel.built.op_space.empty()) {
            kernel.built.op_space[next() % kernel.built.op_space.size()] =
                static_cast<SpaceId>(next() % 128) - 16;
          }
          break;
        case 6:
          kernel.memory.smem_bytes = static_cast<std::int64_t>(next() % 3) - 1;
          kernel.memory.reg_bytes = static_cast<std::int64_t>(next() % 3) - 1;
          break;
        case 7:
          kernel.has_temporal = true;
          kernel.temporal.dim = static_cast<DimId>(next() % 64) - 8;
          kernel.temporal.block = static_cast<std::int64_t>(next() % 5) - 2;
          break;
      }
    }
    DiagnosticReport report = AnalyzeCompiledProgram(program, g);
    (void)report;  // any verdict is fine; returning is the property
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzAnalyzerTest, ::testing::Range(0, 16));

}  // namespace
}  // namespace spacefusion
