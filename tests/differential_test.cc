// Differential-testing suite: for a corpus of randomly generated graphs
// (shared generators in tests/random_graph.h), every schedule the compiler
// chooses must execute — via the fused ScheduleExecutor — to the same
// values as the unfused ReferenceExecutor.
#include <gtest/gtest.h>

#include <cstdint>

#include "src/core/spacefusion.h"
#include "tests/random_graph.h"

namespace spacefusion {
namespace {

using testing_util::RandomGraph;

// Compiles `g` with `options` and checks the fused program against the
// unfused reference on every graph output.
void ExpectFusedMatchesReference(const Graph& g, const CompileOptions& options,
                                 std::uint64_t input_seed) {
  CompilerEngine compiler{options};
  StatusOr<CompiledSubprogram> compiled = compiler.Compile(g);
  ASSERT_TRUE(compiled.ok()) << g.ToString() << "\n" << compiled.status().ToString();

  TensorEnv inputs = MakeGraphInputs(g, input_seed);
  TensorEnv reference = inputs;
  ASSERT_TRUE(RunReference(g, &reference).ok());
  TensorEnv outputs;
  Status st = RunScheduledProgram(compiled->program, g, inputs, &outputs);
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (TensorId out : g.OutputIds()) {
    EXPECT_LT(MaxRelDiff(outputs[static_cast<size_t>(out)], reference[static_cast<size_t>(out)]),
              1e-2f)
        << g.ToString();
  }
}

class DifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialTest, FusedMatchesReferenceAtEveryJobCount) {
  // A corpus disjoint from fuzz_test's (different seed stride).
  std::uint64_t seed = static_cast<std::uint64_t>(GetParam()) * 2654435761ULL + 7;
  Graph g = RandomGraph(seed);
  ASSERT_TRUE(g.Validate().ok());
  ExpectFusedMatchesReference(g, CompileOptions(AmpereA100()), /*input_seed=*/seed ^ 0x5F);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest, ::testing::Range(0, 24));

// The expert-config (no auto-scheduling) path never runs the tuner's sweep;
// it must also stay numerically sound so the ablation variants keep working.
class DifferentialExpertTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialExpertTest, ExpertConfigsMatchReference) {
  std::uint64_t seed = static_cast<std::uint64_t>(GetParam()) * 9176101ULL + 3;
  Graph g = RandomGraph(seed);
  ASSERT_TRUE(g.Validate().ok());
  CompileOptions options{AmpereA100()};
  options.enable_auto_scheduling = false;
  ExpectFusedMatchesReference(g, options, /*input_seed=*/99);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialExpertTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace spacefusion
