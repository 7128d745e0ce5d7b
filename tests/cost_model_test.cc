// Staged-fidelity cost evaluation tests: ScreenKernel's lower-bound
// guarantee versus EstimateKernel (the admissibility property the tuner's
// stage-1 screening relies on), screening on/off selection identity on every
// built-in model, and exactness of the range-batched cache entry points
// against the per-line reference loop.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "src/core/spacefusion.h"
#include "src/schedule/lowering.h"
#include "src/schedule/resource_aware.h"
#include "src/sim/cache.h"
#include "src/sim/cost_model.h"
#include "src/sim/memory_sim.h"
#include "src/tuning/tuner.h"

namespace spacefusion {
namespace {

// --- (a) ScreenKernel is a lower bound on EstimateKernel --------------------

KernelSpec RandomSpec(std::mt19937* rng) {
  std::uniform_int_distribution<int> grid_log(0, 20);
  std::uniform_int_distribution<int> threads_pick(0, 1);
  std::uniform_int_distribution<std::int64_t> smem(0, 96 * 1024);
  std::uniform_int_distribution<std::int64_t> regs(16 * 1024, 64 * 1024);
  std::uniform_int_distribution<int> flops_log(10, 40);
  std::uniform_real_distribution<double> eff(0.2, 1.0);
  std::uniform_real_distribution<double> bw(0.5, 1.0);
  std::uniform_int_distribution<int> n_reads(0, 4);
  std::uniform_int_distribution<int> n_writes(0, 2);
  std::uniform_int_distribution<int> bytes_log(10, 30);
  std::uniform_real_distribution<double> touches(1.0, 4.0);
  std::uniform_int_distribution<int> coin(0, 1);

  KernelSpec k;
  k.name = "rand";
  k.grid = std::int64_t{1} << grid_log(*rng);
  k.threads_per_block = threads_pick(*rng) == 0 ? 128 : 256;
  k.smem_per_block = smem(*rng);
  k.regs_per_block_bytes = regs(*rng);
  k.flops = std::int64_t{1} << flops_log(*rng);
  k.compute_efficiency = eff(*rng);
  k.bandwidth_efficiency = bw(*rng);
  int nr = n_reads(*rng);
  for (int i = 0; i < nr; ++i) {
    TensorTraffic r;
    r.unique_bytes = std::int64_t{1} << bytes_log(*rng);
    r.per_block_bytes =
        coin(*rng) != 0 ? r.unique_bytes / k.grid : r.unique_bytes / std::max<std::int64_t>(1, k.grid / 4);
    if (r.per_block_bytes <= 0) {
      r.per_block_bytes = r.unique_bytes;
    }
    r.touches_per_byte = coin(*rng) != 0 ? 1.0 : touches(*rng);
    r.shared_across_blocks = coin(*rng) != 0;
    k.reads.push_back(r);
  }
  int nw = n_writes(*rng);
  for (int i = 0; i < nw; ++i) {
    TensorTraffic w;
    w.unique_bytes = std::int64_t{1} << bytes_log(*rng);
    k.writes.push_back(w);
  }
  return k;
}

TEST(ScreenKernelTest, LowerBoundsEstimateOnRandomizedSpecs) {
  std::mt19937 rng(42);
  for (const GpuArch& arch : AllArchitectures()) {
    CostModel cm(arch);
    for (int trial = 0; trial < 400; ++trial) {
      KernelSpec k = RandomSpec(&rng);
      double screen = cm.ScreenKernel(k);
      double full = cm.EstimateKernel(k).time_us;
      EXPECT_LE(screen, full + 1e-9)
          << arch.name << " trial " << trial << ": screening score exceeds full fidelity";
      EXPECT_GT(screen, 0.0);
    }
  }
}

TEST(ScreenKernelTest, UnlaunchableKernelGetsSamePenalty) {
  CostModel cm(AmpereA100());
  KernelSpec k;
  k.grid = 64;
  k.smem_per_block = 10 * 1024 * 1024;  // way over any per-SM budget
  EXPECT_EQ(cm.ScreenKernel(k), cm.EstimateKernel(k).time_us);
}

// The bound must also hold through the two lowering paths the tuner actually
// compares: LowerForScreening on the enumeration-time footprint versus full
// ApplyConfig + PlanMemory + LowerSchedule, for every config in a real sweep.
TEST(ScreenKernelTest, ScreeningScoreLowerBoundsFullLoweringAcrossSweep) {
  Graph g = BuildMha(8, 512, 512, 64);
  ResourceConfig rc = ResourceConfig::FromArch(AmpereA100());
  StatusOr<SlicingResult> sliced = ResourceAwareSlicing(g, rc);
  ASSERT_TRUE(sliced.ok()) << sliced.status().ToString();
  ASSERT_EQ(sliced->footprints.size(), sliced->configs.size());
  ASSERT_GT(sliced->configs.size(), 0u);

  CostModel cost(AmpereA100());
  ScreenContext ctx = MakeScreenContext(sliced->schedule);
  for (size_t i = 0; i < sliced->configs.size(); ++i) {
    sliced->schedule.ApplyConfig(sliced->configs[i]);
    PlanMemory(&sliced->schedule, rc);
    AddressMap probe;
    double full = cost.EstimateKernel(LowerSchedule(sliced->schedule, &probe)).time_us;
    double screen = cost.ScreenKernel(LowerForScreening(ctx, sliced->footprints[i]));
    EXPECT_LE(screen, full + 1e-9) << "config " << i << ": inadmissible screening score";
  }
}

// --- (b) screening on/off picks the same config on every model --------------

std::string ProgramFingerprint(const CompiledModel& compiled) {
  std::string out;
  for (const CompiledSubprogram& sub : compiled.unique_subprograms) {
    for (const SmgSchedule& kernel : sub.program.kernels) {
      out += kernel.ToString();
    }
  }
  return out;
}

TEST(ScreeningTest, OnOffPicksSameScheduleOnAllModels) {
  for (ModelKind kind : AllModelKinds()) {
    ModelGraph model = BuildModel(GetModelConfig(kind, /*batch=*/1, /*seq=*/128));

    auto compile = [&](int screen_top_k) {
      CompileOptions options(AmpereA100());
      options.tuner.screen_top_k = screen_top_k;
      CompilerEngine compiler{options};
      StatusOr<CompiledModel> compiled = compiler.CompileModel(model);
      EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
      return compiled;
    };

    StatusOr<CompiledModel> screened = compile(/*screen_top_k=*/-1);  // default top-K
    StatusOr<CompiledModel> full = compile(/*screen_top_k=*/0);      // exhaustive
    ASSERT_TRUE(screened.ok() && full.ok()) << ModelKindName(kind);

    EXPECT_EQ(ProgramFingerprint(*screened), ProgramFingerprint(*full))
        << ModelKindName(kind) << ": screening changed the selected schedule";
    EXPECT_EQ(screened->total.time_us, full->total.time_us) << ModelKindName(kind);

    // Screening must actually cut the number of full-fidelity evaluations.
    int screened_tried = 0, full_tried = 0;
    for (const CompiledSubprogram& sub : screened->unique_subprograms) {
      screened_tried += sub.tuning.configs_tried;
      if (sub.tuning.configs_screened > 0) {  // small sweeps skip screening
        EXPECT_GE(sub.tuning.configs_screened, sub.tuning.configs_tried) << ModelKindName(kind);
      }
    }
    for (const CompiledSubprogram& sub : full->unique_subprograms) {
      full_tried += sub.tuning.configs_tried;
    }
    EXPECT_LT(screened_tried, full_tried) << ModelKindName(kind);
  }
}

// --- (c) range-batched cache entry points equal the per-line loop -----------

struct CacheShape {
  std::int64_t capacity;
  int line;
  int assoc;
};

TEST(CacheBatchTest, AccessRangeMatchesPerLineLoopOnRandomizedTraces) {
  std::mt19937 rng(7);
  const CacheShape shapes[] = {
      {256, 64, 4}, {4096, 64, 4}, {16 * 1024, 128, 8}, {8192, 32, 2}, {64 * 1024, 128, 16}};
  std::uniform_int_distribution<std::int64_t> base_pick(0, (1 << 18) - 1);
  std::uniform_int_distribution<std::int64_t> bytes_pick(1, 8192);
  std::uniform_int_distribution<int> reset_pick(0, 39);

  for (const CacheShape& s : shapes) {
    // `batched` exercises AccessRange + AccessLines (the simulator's L1->L2
    // nesting); `reference` replays the identical stream one line at a time.
    SetAssociativeCache l1_batched(s.capacity, s.line, s.assoc);
    SetAssociativeCache l1_reference(s.capacity, s.line, s.assoc);
    SetAssociativeCache l2_batched(s.capacity * 8, s.line, s.assoc);
    SetAssociativeCache l2_reference(s.capacity * 8, s.line, s.assoc);

    for (int op = 0; op < 300; ++op) {
      if (reset_pick(rng) == 0) {
        l1_batched.Reset();
        l1_reference.Reset();
      }
      std::int64_t base = base_pick(rng);
      std::int64_t bytes = bytes_pick(rng);

      std::vector<std::int64_t> missed;
      std::int64_t batched_misses = l1_batched.AccessRange(base, bytes, &missed);
      std::int64_t l2_batched_misses = l2_batched.AccessLines(missed);

      std::int64_t ref_misses = 0, l2_ref_misses = 0;
      std::vector<std::int64_t> ref_missed;
      for (std::int64_t a = (base / s.line) * s.line; a <= base + bytes - 1; a += s.line) {
        if (!l1_reference.Access(a)) {
          ++ref_misses;
          ref_missed.push_back(a);
          if (!l2_reference.Access(a)) {
            ++l2_ref_misses;
          }
        }
      }

      ASSERT_EQ(batched_misses, ref_misses) << "op " << op;
      ASSERT_EQ(missed, ref_missed) << "op " << op;
      ASSERT_EQ(l2_batched_misses, l2_ref_misses) << "op " << op;
    }

    EXPECT_EQ(l1_batched.stats().accesses, l1_reference.stats().accesses);
    EXPECT_EQ(l1_batched.stats().hits, l1_reference.stats().hits);
    EXPECT_EQ(l1_batched.stats().misses, l1_reference.stats().misses);
    EXPECT_EQ(l2_batched.stats().accesses, l2_reference.stats().accesses);
    EXPECT_EQ(l2_batched.stats().hits, l2_reference.stats().hits);
    EXPECT_EQ(l2_batched.stats().misses, l2_reference.stats().misses);
  }
}

// --- Hit-rate pin for a real lowered kernel ---------------------------------

// MHA(384 heads, seq 256) lowered at the slicer's initial config, replayed
// through the memory simulator: gauges pinned to the pure-trace values
// captured before the fast path landed (acceptance bar: within 1%).
TEST(MemorySimPinTest, MhaFirstConfigHitRates) {
  Graph g = BuildMha(32 * 12, 256, 256, 64);
  ResourceConfig rc = ResourceConfig::FromArch(AmpereA100());
  StatusOr<SlicingResult> sliced = ResourceAwareSlicing(g, rc);
  ASSERT_TRUE(sliced.ok()) << sliced.status().ToString();

  AddressMap am;
  KernelSpec spec = LowerSchedule(sliced->schedule, &am);
  MemorySim sim(AmpereA100());
  ExecutionReport rep = sim.Run({spec});

  ASSERT_GT(rep.l1_accesses, 0);
  ASSERT_GT(rep.l2_accesses, 0);
  double l2_hit = 1.0 - static_cast<double>(rep.l2_misses) / static_cast<double>(rep.l2_accesses);
  EXPECT_NEAR(l2_hit, 0.997923, 0.01);
  EXPECT_EQ(rep.dram_bytes, 26017774);
  EXPECT_EQ(rep.l1_accesses, 50429952);
  EXPECT_EQ(rep.l2_accesses, 50528256);
}

}  // namespace
}  // namespace spacefusion
