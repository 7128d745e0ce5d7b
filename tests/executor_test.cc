// Numerical equivalence of fused schedules vs the unfused reference — the
// end-to-end proof that slicing + UTA (online softmax et al.) is exact.
#include <gtest/gtest.h>

#include <tuple>

#include "src/exec/schedule_executor.h"
#include "src/graph/builder.h"
#include "src/graph/subgraphs.h"
#include "src/schedule/pipeline.h"
#include "src/sim/arch.h"
#include "src/tuning/tuner.h"

namespace spacefusion {
namespace {

constexpr float kTol = 5e-3f;  // fp32 accumulation over different orders

// Compiles `graph`, forces the given temporal step when possible, runs the
// fused schedule and compares every output against the reference.
void ExpectFusedMatchesReference(const Graph& graph, std::int64_t want_step,
                                 const GpuArch& arch = AmpereA100()) {
  ResourceConfig rc = ResourceConfig::FromArch(arch);
  StatusOr<SlicingResult> sliced = ResourceAwareSlicing(graph, rc);
  ASSERT_TRUE(sliced.ok()) << sliced.status().ToString();

  // Prefer a config with the requested temporal step.
  const ScheduleConfig* chosen = nullptr;
  for (const ScheduleConfig& c : sliced->configs) {
    if (want_step > 0 && c.use_temporal && c.temporal_step == want_step) {
      chosen = &c;
      break;
    }
    if (want_step == 0 && !c.use_temporal) {
      chosen = &c;
      break;
    }
  }
  if (chosen == nullptr) {
    chosen = &sliced->configs.front();
  }
  sliced->schedule.ApplyConfig(*chosen);
  PlanMemory(&sliced->schedule, rc);

  TensorEnv env = MakeGraphInputs(graph, /*seed=*/99);
  TensorEnv ref = env;
  ASSERT_TRUE(RunReference(graph, &ref).ok());
  ASSERT_TRUE(RunSchedule(sliced->schedule, &env).ok());

  for (TensorId out : graph.OutputIds()) {
    float diff = MaxRelDiff(env[static_cast<size_t>(out)], ref[static_cast<size_t>(out)]);
    EXPECT_LT(diff, kTol) << graph.name() << " output " << graph.tensor(out).name
                          << " step=" << want_step;
  }
}

// --- MHA: the flagship UTA case ---------------------------------------------

class MhaEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t, std::int64_t>> {};

TEST_P(MhaEquivalenceTest, FusedEqualsReference) {
  auto [seq_kv, head_dim, step] = GetParam();
  Graph g = BuildMha(/*bh=*/3, /*sq=*/24, seq_kv, head_dim);
  ExpectFusedMatchesReference(g, step);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MhaEquivalenceTest,
    ::testing::Combine(::testing::Values<std::int64_t>(64, 128, 160),  // seq_kv (incl. non-pow2)
                       ::testing::Values<std::int64_t>(16, 32),        // head_dim
                       ::testing::Values<std::int64_t>(16, 32, 64)));  // temporal step

TEST(MhaEquivalenceTest, MaskedAttention) {
  Graph g = BuildMha(2, 16, 96, 16, /*masked=*/true);
  ExpectFusedMatchesReference(g, 32);
}

TEST(MhaEquivalenceTest, StepLargerThanExtentDegradesToSinglePass) {
  Graph g = BuildMha(2, 16, 48, 16);
  ExpectFusedMatchesReference(g, 0);  // no temporal slicing
}

TEST(MhaEquivalenceTest, DifferentStepsAgreeWithEachOther) {
  Graph g = BuildMha(2, 16, 128, 16);
  ResourceConfig rc = ResourceConfig::FromArch(AmpereA100());
  StatusOr<SlicingResult> sliced = ResourceAwareSlicing(g, rc);
  ASSERT_TRUE(sliced.ok());

  TensorEnv inputs = MakeGraphInputs(g, 5);
  std::vector<Tensor> outs;
  for (std::int64_t step : {16, 32, 64}) {
    for (const ScheduleConfig& c : sliced->configs) {
      if (c.use_temporal && c.temporal_step == step) {
        sliced->schedule.ApplyConfig(c);
        PlanMemory(&sliced->schedule, rc);
        TensorEnv env = inputs;
        ASSERT_TRUE(RunSchedule(sliced->schedule, &env).ok());
        outs.push_back(env[static_cast<size_t>(g.OutputIds()[0])]);
        break;
      }
    }
  }
  ASSERT_GE(outs.size(), 2u);
  for (size_t i = 1; i < outs.size(); ++i) {
    EXPECT_LT(MaxRelDiff(outs[i], outs[0]), 1e-3f);
  }
}

// --- Other subgraphs ---------------------------------------------------------

class SubgraphEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST(SubgraphEquivalence, MlpChain) {
  ExpectFusedMatchesReference(BuildMlp(4, 64, 32, 32), /*want_step=*/0);
}

TEST(SubgraphEquivalence, MlpChainTemporal) {
  // Whatever temporal dim the slicer picked, execution stays exact.
  ExpectFusedMatchesReference(BuildMlp(3, 64, 64, 64), /*want_step=*/16);
}

TEST(SubgraphEquivalence, LstmCell) {
  ExpectFusedMatchesReference(BuildLstmCell(16, 32, 48), 0);
  ExpectFusedMatchesReference(BuildLstmCell(16, 32, 48), 16);
}

TEST(SubgraphEquivalence, LayerNorm) {
  ExpectFusedMatchesReference(BuildLayerNormGraph(32, 128), 0);
}

TEST(SubgraphEquivalence, Ffn) {
  ExpectFusedMatchesReference(BuildFfn(32, 64, 128, UnaryKind::kGelu, NormKind::kLayerNorm), 0);
}

TEST(SubgraphEquivalence, AttnOut) {
  ExpectFusedMatchesReference(BuildAttnOut(32, 64, NormKind::kLayerNorm), 0);
}

TEST(SubgraphEquivalence, SwigluFfn) {
  ExpectFusedMatchesReference(BuildSwigluFfn(32, 64, 128), 0);
}

TEST(SubgraphEquivalence, RmsNormAttnOut) {
  ExpectFusedMatchesReference(BuildAttnOut(32, 64, NormKind::kRmsNorm), 0);
}

TEST(SubgraphEquivalence, QkvProjMultiOutput) {
  ExpectFusedMatchesReference(BuildQkvProj(32, 64, 64), 0);
}

// --- Partitioned programs -----------------------------------------------------

TEST(PartitionedExecutionTest, SplitProgramMatchesReference) {
  // A LayerNorm whose row tile cannot fit the budget: `centered` must cross
  // the variance reduction, so the fused SMG is unschedulable and the
  // pipeline has to partition it.
  Graph g = BuildLayerNormGraph(32, 4096);
  ResourceConfig tiny;
  tiny.smem_per_block_max = 4 * 1024;
  tiny.reg_per_block_max = 32 * 1024;
  SlicingOptions options;
  StatusOr<PipelineResult> pipeline = RunSlicingPipeline(g, tiny, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  ASSERT_GT(pipeline->candidates.front().kernels.size(), 1u) << "expected a partition";

  ScheduledProgram program;
  for (SlicingResult& k : pipeline->candidates.front().kernels) {
    ApplyExpertConfig(&k, tiny);
    program.kernels.push_back(k.schedule);
  }

  TensorEnv inputs = MakeGraphInputs(g, 7);
  TensorEnv ref = inputs;
  ASSERT_TRUE(RunReference(g, &ref).ok());
  TensorEnv outs;
  ASSERT_TRUE(RunScheduledProgram(program, g, inputs, &outs).ok());
  for (TensorId out : g.OutputIds()) {
    EXPECT_LT(MaxRelDiff(outs[static_cast<size_t>(out)], ref[static_cast<size_t>(out)]), kTol);
  }
}

TEST(PartitionedExecutionTest, SinglePartitionProgramAlsoRuns) {
  Graph g = BuildMha(2, 16, 64, 16);
  ResourceConfig rc = ResourceConfig::FromArch(HopperH100());
  StatusOr<PipelineResult> pipeline = RunSlicingPipeline(g, rc, SlicingOptions());
  ASSERT_TRUE(pipeline.ok());
  ScheduledProgram program;
  for (SlicingResult& k : pipeline->candidates.front().kernels) {
    ApplyExpertConfig(&k, rc);
    program.kernels.push_back(k.schedule);
  }
  TensorEnv inputs = MakeGraphInputs(g, 3);
  TensorEnv ref = inputs;
  ASSERT_TRUE(RunReference(g, &ref).ok());
  TensorEnv outs;
  ASSERT_TRUE(RunScheduledProgram(program, g, inputs, &outs).ok());
  EXPECT_LT(MaxRelDiff(outs[static_cast<size_t>(g.OutputIds()[0])],
                       ref[static_cast<size_t>(g.OutputIds()[0])]),
            kTol);
}

// --- Reference executor --------------------------------------------------------

TEST(ReferenceExecutorTest, FillsAllTensors) {
  Graph g = BuildLstmCell(4, 8, 8);
  TensorEnv env = MakeGraphInputs(g, 1);
  ASSERT_TRUE(RunReference(g, &env).ok());
  for (const TensorInfo& t : g.tensors()) {
    EXPECT_TRUE(env[static_cast<size_t>(t.id)].defined()) << t.name;
  }
}

TEST(ReferenceExecutorTest, ConstantsSplat) {
  GraphBuilder b("c");
  TensorId x = b.Input("x", Shape({4}));
  TensorId scaled = b.Scale(x, 2.0f);
  b.MarkOutput(scaled);
  Graph g = b.Build();
  TensorEnv env = MakeGraphInputs(g, 1);
  ASSERT_TRUE(RunReference(g, &env).ok());
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(env[static_cast<size_t>(scaled)].at(i),
                    env[static_cast<size_t>(x)].at(i) * 2.0f);
  }
}

// An undefined input slot is INVALID_ARGUMENT naming the tensor, from
// RunReference and from both of RunSchedule's paths, never an abort.
TEST(ReferenceExecutorTest, UndefinedInputIsInvalidArgument) {
  GraphBuilder b("mlp");
  const TensorId x = b.Input("x", Shape({16, 32}));
  const TensorId w = b.Weight("w_undefined", Shape({32, 32}));
  b.MarkOutput(b.Relu(b.MatMul(x, w)));
  const Graph mlp = b.Build();
  const Graph mha = BuildMha(/*batch_heads=*/2, /*seq_q=*/16, /*seq_kv=*/64, /*head_dim=*/8);
  const ResourceConfig rc = ResourceConfig::FromArch(AmpereA100());
  for (const auto& [graph, temporal] : {std::pair<const Graph*, bool>{&mlp, false}, {&mha, true}}) {
    StatusOr<SlicingResult> sliced = ResourceAwareSlicing(*graph, rc);
    ASSERT_TRUE(sliced.ok()) << sliced.status().ToString();
    for (const ScheduleConfig& c : sliced->configs) {
      sliced->schedule.ApplyConfig(c);
      if ((sliced->schedule.has_temporal && sliced->schedule.NumIntraBlocks() > 1) == temporal) {
        break;
      }
    }
    const SmgSchedule& schedule = sliced->schedule;
    ASSERT_EQ(schedule.has_temporal && schedule.NumIntraBlocks() > 1, temporal) << graph->name();
    // The weight of the MLP, the last input (v) of attention.
    const TensorId undefined = temporal ? graph->InputIds().back() : w;
    const std::string name = "tensor " + graph->tensor(undefined).name + " ";
    TensorEnv env = MakeGraphInputs(*graph, /*seed=*/1);
    env[static_cast<size_t>(undefined)] = Tensor();
    TensorEnv reference = env;
    for (const Status& st : {RunSchedule(schedule, &env), RunReference(*graph, &reference)}) {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
      EXPECT_NE(st.message().find(name), std::string::npos) << st.ToString();
    }
  }
  TensorEnv short_env = MakeGraphInputs(mlp, /*seed=*/1);
  short_env.pop_back();
  EXPECT_EQ(RunReference(mlp, &short_env).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace spacefusion
