// Scheduler-layer tests: memory planning (Sec. 5.4), search space,
// resource-aware slicing (Alg. 1), partitioning (Alg. 2), lowering.
#include <gtest/gtest.h>

#include "src/graph/builder.h"
#include "src/graph/subgraphs.h"
#include "src/schedule/lowering.h"
#include "src/schedule/pipeline.h"
#include "src/sim/arch.h"

namespace spacefusion {
namespace {

ResourceConfig A100Rc() { return ResourceConfig::FromArch(AmpereA100()); }

SlicingResult SliceOrDie(const Graph& g, const ResourceConfig& rc) {
  StatusOr<SlicingResult> sliced = ResourceAwareSlicing(g, rc);
  EXPECT_TRUE(sliced.ok()) << sliced.status().ToString();
  return std::move(sliced).value();
}

// --- Memory planner ----------------------------------------------------------

TEST(MemoryPlannerTest, MhaLevelAssignments) {
  Graph g = BuildMha(2, 64, 256, 64);
  SlicingResult sliced = SliceOrDie(g, A100Rc());
  const SmgSchedule& sched = sliced.schedule;

  // Small staged inputs live in shared memory; the attention output is a
  // reduction sink accumulated in registers before the final write.
  for (const TensorInfo& t : g.tensors()) {
    MemLevel level = sched.memory.tensor_level[static_cast<size_t>(t.id)];
    if (t.kind == TensorKind::kConstant) {
      EXPECT_EQ(static_cast<int>(level), static_cast<int>(MemLevel::kRegister)) << t.name;
    }
    if (t.kind == TensorKind::kOutput) {
      EXPECT_EQ(static_cast<int>(level), static_cast<int>(MemLevel::kRegister)) << t.name;
    }
  }
  EXPECT_GT(sched.memory.smem_bytes, 0);
  EXPECT_GT(sched.memory.reg_bytes, 0);
}

TEST(MemoryPlannerTest, LargeWeightsAreStreamed) {
  Graph g = BuildMlp(2, 512, 256, 256);
  SlicingResult sliced = SliceOrDie(g, A100Rc());
  const SmgSchedule& sched = sliced.schedule;
  int streamed = 0;
  for (TensorId w : g.WeightIds()) {
    if (g.tensor(w).shape.rank() == 2 &&
        sched.memory.tensor_level[static_cast<size_t>(w)] == MemLevel::kGlobalStreamed) {
      ++streamed;
    }
  }
  EXPECT_EQ(streamed, 2);  // both 256x256 weight matrices exceed 16KB
}

TEST(MemoryPlannerTest, FootprintGrowsWithBlockSize) {
  Graph g = BuildLayerNormGraph(1024, 1024);
  SlicingResult sliced = SliceOrDie(g, A100Rc());
  SmgSchedule& sched = sliced.schedule;

  ScheduleConfig small;
  small.spatial_blocks = {1};
  sched.ApplyConfig(small);
  PlanMemory(&sched, A100Rc());
  std::int64_t small_smem = sched.memory.smem_bytes;

  ScheduleConfig big;
  big.spatial_blocks = {8};
  sched.ApplyConfig(big);
  PlanMemory(&sched, A100Rc());
  EXPECT_GT(sched.memory.smem_bytes, small_smem);
}

TEST(MemoryPlannerTest, StreamingIntermediatesAreCheap) {
  // A long element-wise chain must not accumulate register tiles: values
  // stream through per-thread registers.
  GraphBuilder b("chain");
  TensorId x = b.Input("x", Shape({256, 256}));
  TensorId cur = x;
  for (int i = 0; i < 10; ++i) {
    cur = b.Relu(b.Add(cur, cur));
  }
  b.MarkOutput(cur);
  Graph g = b.Build();
  SlicingResult sliced = SliceOrDie(g, A100Rc());
  EXPECT_LT(sliced.schedule.memory.reg_bytes, 64 * 1024);
}

TEST(MemoryPlannerTest, ValuesCrossingReductionsAreMaterialized) {
  // exp values are re-read after the row sum: the tile must live in smem.
  GraphBuilder b("sm");
  TensorId x = b.Input("x", Shape({64, 256}));
  TensorId sm = b.Softmax(x);
  TensorId w = b.Weight("w", Shape({256, 32}));
  b.MarkOutput(b.MatMul(sm, w));
  Graph g = b.Build();
  SlicingResult sliced = SliceOrDie(g, A100Rc());
  bool exp_in_smem = false;
  for (const TensorInfo& t : g.tensors()) {
    if (t.name.find("exp") != std::string::npos &&
        sliced.schedule.memory.tensor_level[static_cast<size_t>(t.id)] == MemLevel::kShared) {
      exp_in_smem = true;
    }
  }
  EXPECT_TRUE(exp_in_smem);
}

// --- Search space --------------------------------------------------------------

TEST(SearchSpaceTest, AllConfigsAreFeasible) {
  Graph g = BuildMha(4, 128, 512, 64);
  ResourceConfig rc = A100Rc();
  SlicingResult sliced = SliceOrDie(g, rc);
  ASSERT_FALSE(sliced.configs.empty());
  for (const ScheduleConfig& c : sliced.configs) {
    sliced.schedule.ApplyConfig(c);
    PlanMemory(&sliced.schedule, rc);
    EXPECT_TRUE(CheckResources(sliced.schedule, rc)) << c.ToString();
    for (std::int64_t b : c.spatial_blocks) {
      EXPECT_TRUE((b & (b - 1)) == 0 || b == sliced.schedule.built.smg.dim(0).extent)
          << "non-pow2 block " << b;
    }
  }
}

TEST(SearchSpaceTest, TighterBudgetShrinksSpace) {
  Graph g = BuildMha(4, 128, 512, 64);
  SlicingResult large = SliceOrDie(g, A100Rc());
  ResourceConfig tiny;
  tiny.smem_per_block_max = 16 * 1024;
  tiny.reg_per_block_max = 64 * 1024;
  StatusOr<SlicingResult> small = ResourceAwareSlicing(g, tiny);
  if (small.ok()) {
    EXPECT_LT(small->configs.size(), large.configs.size());
  }
}

TEST(SearchSpaceTest, MinBlockRespected) {
  Graph g = BuildMha(4, 128, 512, 64);
  SlicingOptions options;
  options.min_block = 16;
  StatusOr<SlicingResult> sliced = ResourceAwareSlicing(g, A100Rc(), options);
  ASSERT_TRUE(sliced.ok());
  const Smg& smg = sliced->schedule.built.smg;
  for (const ScheduleConfig& c : sliced->configs) {
    for (size_t i = 0; i < c.spatial_blocks.size(); ++i) {
      DimId d = sliced->schedule.spatial[i].dim;
      std::int64_t extent = smg.dim(d).extent;
      bool is_free = smg.MappingsAlongDim(d).empty();
      if (!is_free) {
        EXPECT_GE(c.spatial_blocks[i], std::min<std::int64_t>(16, extent));
      }
    }
  }
}

// --- Resource-aware slicing (Alg. 1) -------------------------------------------

TEST(ResourceAwareTest, MhaSchedulesWithTemporal) {
  Graph g = BuildMha(8, 1024, 1024, 64);
  SlicingResult sliced = SliceOrDie(g, A100Rc());
  EXPECT_TRUE(sliced.schedule.has_temporal);
  bool any_temporal_config = false;
  for (const ScheduleConfig& c : sliced.configs) {
    any_temporal_config |= c.use_temporal;
  }
  EXPECT_TRUE(any_temporal_config);
}

TEST(ResourceAwareTest, TemporalDisabledByOption) {
  Graph g = BuildMha(8, 256, 256, 64);
  SlicingOptions options;
  options.enable_temporal = false;
  StatusOr<SlicingResult> sliced = ResourceAwareSlicing(g, A100Rc(), options);
  ASSERT_TRUE(sliced.ok());
  EXPECT_FALSE(sliced->schedule.has_temporal);
}

TEST(ResourceAwareTest, UnschedulableWhenNothingFits) {
  // A gigantic LayerNorm row cannot fit any tile under a tiny budget.
  Graph g = BuildLayerNormGraph(64, 1 << 20);
  ResourceConfig tiny;
  tiny.smem_per_block_max = 4 * 1024;
  tiny.reg_per_block_max = 16 * 1024;
  StatusOr<SlicingResult> sliced = ResourceAwareSlicing(g, tiny);
  EXPECT_FALSE(sliced.ok());
  EXPECT_EQ(sliced.status().code(), StatusCode::kUnschedulable);
}

TEST(ResourceAwareTest, ScheduleToStringIsInformative) {
  Graph g = BuildMha(2, 64, 128, 32);
  SlicingResult sliced = SliceOrDie(g, A100Rc());
  std::string s = sliced.schedule.ToString();
  EXPECT_NE(s.find("grid="), std::string::npos);
  EXPECT_NE(s.find("smem="), std::string::npos);
}

// --- Partitioning (Alg. 2) -------------------------------------------------------

TEST(PartitionerTest, BoundariesSeparateReductions) {
  Graph g = BuildLayerNormGraph(64, 128);
  std::vector<int> cuts = SubSmgBoundaries(g);
  EXPECT_FALSE(cuts.empty());
  for (int cut : cuts) {
    EXPECT_GT(cut, 0);
    EXPECT_LT(cut, static_cast<int>(g.ops().size()));
  }
}

TEST(PartitionerTest, SplitGraphPreservesSemantics) {
  Graph g = BuildFfn(16, 32, 64, UnaryKind::kRelu, NormKind::kLayerNorm);
  std::vector<int> cuts = SubSmgBoundaries(g);
  ASSERT_FALSE(cuts.empty());
  int cut = cuts[cuts.size() / 2];
  auto [front, back] = SplitGraph(g, cut);
  EXPECT_TRUE(front.Validate().ok());
  EXPECT_TRUE(back.Validate().ok());
  EXPECT_EQ(front.ops().size() + back.ops().size(), g.ops().size());
  // The original output survives in the back graph under its name.
  for (TensorId out : g.OutputIds()) {
    bool found = false;
    for (TensorId t : back.OutputIds()) {
      found |= back.tensor(t).name == g.tensor(out).name;
    }
    for (TensorId t : front.OutputIds()) {
      found |= front.tensor(t).name == g.tensor(out).name;
    }
    EXPECT_TRUE(found) << g.tensor(out).name;
  }
}

TEST(PartitionerTest, SplitGraphCutTensorsBecomeBoundary) {
  Graph g = BuildMlp(3, 32, 16, 16);
  std::vector<int> cuts = SubSmgBoundaries(g);
  ASSERT_FALSE(cuts.empty());
  auto [front, back] = SplitGraph(g, cuts.front());
  int front_outputs = static_cast<int>(front.OutputIds().size());
  EXPECT_GE(front_outputs, 1);
  // Every front output appears as a back input with the same name.
  for (TensorId out : front.OutputIds()) {
    bool found = false;
    for (TensorId in : back.InputIds()) {
      if (back.tensor(in).name == front.tensor(out).name) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << front.tensor(out).name;
  }
}

TEST(PartitionerTest, PartitionOnceFindsLargestSchedulablePrefix) {
  Graph g = BuildLayerNormGraph(32, 4096);
  ResourceConfig tiny;
  tiny.smem_per_block_max = 4 * 1024;
  tiny.reg_per_block_max = 32 * 1024;
  // Only partition when the whole graph is indeed unschedulable.
  StatusOr<SlicingResult> whole = ResourceAwareSlicing(g, tiny);
  if (whole.ok()) {
    GTEST_SKIP() << "graph schedulable under tiny budget; nothing to partition";
  }
  StatusOr<PartitionOutcome> part = PartitionOnce(g, tiny, SlicingOptions());
  ASSERT_TRUE(part.ok()) << part.status().ToString();
  EXPECT_TRUE(part->has_rest);
  EXPECT_FALSE(part->front.configs.empty());
}

TEST(PipelineTest, ConvergesToKernelSequence) {
  Graph g = BuildLayerNormGraph(32, 4096);
  ResourceConfig tiny;
  tiny.smem_per_block_max = 4 * 1024;
  tiny.reg_per_block_max = 32 * 1024;
  StatusOr<PipelineResult> pipeline = RunSlicingPipeline(g, tiny, SlicingOptions());
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  EXPECT_GE(pipeline->candidates.front().kernels.size(), 1u);
  // Total op count across kernels covers the whole graph.
  size_t total_ops = 0;
  for (const SlicingResult& k : pipeline->candidates.front().kernels) {
    total_ops += k.schedule.graph.ops().size();
  }
  EXPECT_EQ(total_ops, g.ops().size());
}

// --- Lowering --------------------------------------------------------------------

TEST(LoweringTest, FusedMhaTrafficIsBoundaryOnly) {
  Graph g = BuildMha(8, 256, 256, 64);
  ResourceConfig rc = A100Rc();
  SlicingResult sliced = SliceOrDie(g, rc);
  AddressMap addresses;
  KernelSpec spec = LowerSchedule(sliced.schedule, &addresses);
  std::int64_t read_unique = 0;
  for (const TensorTraffic& r : spec.reads) {
    read_unique += r.unique_bytes;
  }
  // Q + K + V only; the probability matrix never reaches global memory.
  std::int64_t qkv = 3 * 8 * 256 * 64 * 2;
  EXPECT_EQ(read_unique, qkv);
  ASSERT_EQ(spec.writes.size(), 1u);
  EXPECT_EQ(spec.writes[0].unique_bytes, 8 * 256 * 64 * 2);
  EXPECT_GT(spec.flops, 0);
  EXPECT_GT(spec.grid, 0);
}

TEST(LoweringTest, MatmulTileEfficiencyMonotonic) {
  EXPECT_GT(MatmulTileEfficiency(64, 64), MatmulTileEfficiency(32, 32));
  EXPECT_GT(MatmulTileEfficiency(32, 32), MatmulTileEfficiency(8, 8));
}

TEST(LoweringTest, TemporalRecomputeChargesEpilogue) {
  // An MLP sliced temporally re-evaluates the row epilogue per intra-block.
  Graph g = BuildMlp(2, 64, 64, 64);
  ResourceConfig rc = A100Rc();
  SlicingResult sliced = SliceOrDie(g, rc);
  if (!sliced.schedule.has_temporal) {
    GTEST_SKIP() << "no temporal dim chosen";
  }
  ScheduleConfig with_t, without_t;
  bool have_t = false, have_nt = false;
  for (const ScheduleConfig& c : sliced.configs) {
    if (c.use_temporal && !have_t) {
      with_t = c;
      have_t = true;
    }
    if (!c.use_temporal && !have_nt) {
      without_t = c;
      have_nt = true;
    }
  }
  if (!have_t || !have_nt) {
    GTEST_SKIP();
  }
  with_t.spatial_blocks = without_t.spatial_blocks;
  AddressMap a1, a2;
  sliced.schedule.ApplyConfig(with_t);
  PlanMemory(&sliced.schedule, rc);
  KernelSpec temporal = LowerSchedule(sliced.schedule, &a1);
  sliced.schedule.ApplyConfig(without_t);
  PlanMemory(&sliced.schedule, rc);
  KernelSpec single = LowerSchedule(sliced.schedule, &a2);
  EXPECT_GE(temporal.flops, single.flops);
}

}  // namespace
}  // namespace spacefusion
