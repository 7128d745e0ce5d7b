// Focused tests for the pre-processing and candidate-program machinery
// added on top of the core pipeline: connected-component splitting,
// compute-boundary splitting (Sec. 5.3 candidates), mean-reduction Simple
// Aggregate, and the baseline planners' kernel-shape rules.
#include <gtest/gtest.h>

#include "src/core/spacefusion.h"
#include "src/schedule/partitioner.h"
#include "src/support/string_util.h"

namespace spacefusion {
namespace {

// --- SplitConnectedComponents -------------------------------------------------

TEST(ComponentsTest, QkvProjSplitsIntoThreeChains) {
  Graph g = BuildQkvProj(64, 128, 128);
  std::vector<Graph> components = SplitConnectedComponents(g);
  ASSERT_EQ(components.size(), 3u);
  size_t total_ops = 0;
  for (const Graph& c : components) {
    EXPECT_TRUE(c.Validate().ok());
    EXPECT_EQ(c.OutputIds().size(), 1u);
    total_ops += c.ops().size();
  }
  EXPECT_EQ(total_ops, g.ops().size());
}

TEST(ComponentsTest, ConnectedGraphStaysWhole) {
  Graph g = BuildMha(2, 16, 32, 8);
  std::vector<Graph> components = SplitConnectedComponents(g);
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0].ops().size(), g.ops().size());
}

TEST(ComponentsTest, SharedInputDoesNotConnectChains) {
  // Two independent consumers of the same input are separate components.
  GraphBuilder b("two");
  TensorId x = b.Input("x", Shape({8, 8}));
  b.MarkOutput(b.Relu(x));
  b.MarkOutput(b.Exp(x));
  Graph g = b.Build();
  EXPECT_EQ(SplitConnectedComponents(g).size(), 2u);
}

TEST(ComponentsTest, CompiledComponentsRunByName) {
  Graph g = BuildQkvProj(16, 32, 32);
  CompilerEngine compiler{CompileOptions(AmpereA100())};
  auto compiled = compiler.Compile(g);
  ASSERT_TRUE(compiled.ok());
  EXPECT_GE(compiled->kernels.size(), 3u);

  TensorEnv inputs = MakeGraphInputs(g, 9);
  TensorEnv reference = inputs;
  ASSERT_TRUE(RunReference(g, &reference).ok());
  TensorEnv outputs;
  ASSERT_TRUE(RunScheduledProgram(compiled->program, g, inputs, &outputs).ok());
  for (TensorId out : g.OutputIds()) {
    EXPECT_LT(MaxRelDiff(outputs[static_cast<size_t>(out)],
                         reference[static_cast<size_t>(out)]),
              5e-3f);
  }
}

// --- SplitAtComputeBoundaries ---------------------------------------------------

TEST(ComputeBoundaryTest, IsolatesEveryMatmul) {
  Graph g = BuildSwigluFfn(32, 64, 128);
  std::vector<Graph> pieces = SplitAtComputeBoundaries(g);
  int matmul_pieces = 0;
  size_t total_ops = 0;
  for (const Graph& piece : pieces) {
    EXPECT_TRUE(piece.Validate().ok());
    int matmuls = 0;
    for (const Op& op : piece.ops()) {
      matmuls += op.kind == OpKind::kMatMul ? 1 : 0;
    }
    EXPECT_LE(matmuls, 1);
    matmul_pieces += matmuls;
    total_ops += piece.ops().size();
  }
  EXPECT_EQ(matmul_pieces, 3);  // gate, up, down projections
  EXPECT_EQ(total_ops, g.ops().size());
}

TEST(ComputeBoundaryTest, PureMiGraphIsOnePiece) {
  Graph g = BuildLayerNormGraph(16, 32);
  EXPECT_EQ(SplitAtComputeBoundaries(g).size(), 1u);
}

TEST(ComputeBoundaryTest, TunerPrefersSplitForGiantWeights) {
  // Llama-scale FFN: fusing all three 4096x11008 GEMMs into one kernel
  // re-streams ~90MB weights per block; the split candidate must win.
  Graph g = BuildSwigluFfn(2048, 4096, 11008);
  CompilerEngine compiler{CompileOptions(AmpereA100())};
  auto compiled = compiler.Compile(g);
  ASSERT_TRUE(compiled.ok());
  EXPECT_GT(compiled->kernels.size(), 1u);
  EXPECT_GE(compiled->candidate_programs, 2);
}

TEST(ComputeBoundaryTest, TunerKeepsMhaFused) {
  Graph g = BuildMha(8, 512, 512, 64);
  CompilerEngine compiler{CompileOptions(AmpereA100())};
  auto compiled = compiler.Compile(g);
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled->kernels.size(), 1u);  // fused candidate wins
}

// --- Mean reductions under temporal slicing --------------------------------------

TEST(MeanAggregationTest, TemporalMeanIsExact) {
  // mean over the contraction-free last axis, consumed after the loop:
  // out = relu(x) summarized per row then re-expanded.
  GraphBuilder b("mean_sa");
  TensorId x = b.Input("x", Shape({16, 128}));
  TensorId act = b.Relu(x);
  TensorId mean = b.Reduce(ReduceKind::kMean, act);
  TensorId centered = b.Sub(act, mean);
  b.MarkOutput(centered);
  Graph g = b.Build();

  ResourceConfig rc = ResourceConfig::FromArch(AmpereA100());
  StatusOr<SlicingResult> sliced = ResourceAwareSlicing(g, rc);
  ASSERT_TRUE(sliced.ok());

  // Force a temporal config if one exists; the centered output streams
  // along the dim and depends on the running mean, so the plan derivation
  // must have *rejected* temporal slicing of that dim.
  for (const ScheduleConfig& c : sliced->configs) {
    EXPECT_FALSE(c.use_temporal && sliced->schedule.has_temporal &&
                 sliced->schedule.built.smg.dim(sliced->schedule.temporal.dim).extent == 128)
        << "stale streamed output admitted";
  }

  TensorEnv inputs = MakeGraphInputs(g, 4);
  TensorEnv ref = inputs;
  ASSERT_TRUE(RunReference(g, &ref).ok());
  sliced->schedule.ApplyConfig(sliced->configs.front());
  PlanMemory(&sliced->schedule, rc);
  TensorEnv env = inputs;
  ASSERT_TRUE(RunSchedule(sliced->schedule, &env).ok());
  TensorId out = g.OutputIds()[0];
  EXPECT_LT(MaxRelDiff(env[static_cast<size_t>(out)], ref[static_cast<size_t>(out)]), 5e-3f);
}

TEST(MeanAggregationTest, MeanFeedingReductionSinkIsExactUnderSlicing) {
  // mean -> matmul: the mean collapses the row, the matmul contracts rows;
  // slicing the matmul contraction exercises the mean's running-sum +
  // finalize-divide publication.
  GraphBuilder b("mean_chain");
  TensorId x = b.Input("x", Shape({64, 96}));
  TensorId mean = b.Reduce(ReduceKind::kMean, x);        // [64, 1]
  TensorId w = b.Weight("w", Shape({64, 32}));
  b.MarkOutput(b.MatMul(mean, w, /*transpose_a=*/true));  // [1, 32]
  Graph g = b.Build();
  ASSERT_TRUE(g.Validate().ok());

  CompilerEngine compiler{CompileOptions(AmpereA100())};
  auto compiled = compiler.Compile(g);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  TensorEnv inputs = MakeGraphInputs(g, 6);
  TensorEnv ref = inputs;
  ASSERT_TRUE(RunReference(g, &ref).ok());
  TensorEnv outputs;
  ASSERT_TRUE(RunScheduledProgram(compiled->program, g, inputs, &outputs).ok());
  TensorId out = g.OutputIds()[0];
  EXPECT_LT(MaxRelDiff(outputs[static_cast<size_t>(out)], ref[static_cast<size_t>(out)]), 5e-3f);
}

// --- Baseline planner details ------------------------------------------------------

TEST(UnfusedPlannerTest, SoftmaxCollapsesToOneKernel) {
  GraphBuilder b("sm");
  TensorId x = b.Input("x", Shape({32, 64}));
  b.MarkOutput(b.Softmax(x));
  Graph g = b.Build();
  AddressMap am;
  auto kernels = PlanUnfused(g, &am, 0.8, /*fuse_softmax=*/true);
  EXPECT_EQ(kernels.size(), 1u);
  AddressMap am2;
  auto raw = PlanUnfused(g, &am2, 0.8, /*fuse_softmax=*/false);
  EXPECT_EQ(raw.size(), 5u);
}

TEST(UnfusedPlannerTest, ScaleAfterMatmulFoldsIntoAlpha) {
  Graph g = BuildMha(4, 64, 64, 16);
  AddressMap am;
  auto kernels = PlanUnfused(g, &am, 0.8);
  // qk gemm (scale folded) + softmax + pv gemm = 3 kernels.
  EXPECT_EQ(kernels.size(), 3u);
}

TEST(SharedBroadcastTest, RowStatsPartitionBiasShares) {
  EXPECT_FALSE(IsSharedBroadcastOperand(Shape({64, 1}), Shape({64, 128})));
  EXPECT_TRUE(IsSharedBroadcastOperand(Shape({128}), Shape({64, 128})));
  EXPECT_TRUE(IsSharedBroadcastOperand(Shape({1, 128}), Shape({64, 128})));
  EXPECT_FALSE(IsSharedBroadcastOperand(Shape({64, 128}), Shape({64, 128})));
}

TEST(GemmKernelTest, SkinnyProblemsShrinkTilesForOccupancy) {
  AddressMap am;
  KernelSpec skinny = MakeGemmKernel("s", 1, 256, 1024, 1024, 2, &am, "a", "b", "c");
  EXPECT_GE(skinny.grid, 64);
  AddressMap am2;
  KernelSpec fat = MakeGemmKernel("f", 1, 8192, 8192, 1024, 2, &am2, "a", "b", "c");
  EXPECT_GE(fat.grid, 4096);
}

}  // namespace
}  // namespace spacefusion
