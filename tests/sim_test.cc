// GPU simulator tests: cache model, analytic cost model, trace-driven
// memory simulation.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <utility>

#include "src/sim/arch.h"
#include "src/sim/cache.h"
#include "src/sim/cost_model.h"
#include "src/sim/memory_sim.h"

namespace spacefusion {
namespace {

// --- Cache ------------------------------------------------------------------

TEST(CacheTest, HitsAfterFirstTouch) {
  SetAssociativeCache cache(1024, 64, 4);
  EXPECT_FALSE(cache.Access(0));
  EXPECT_TRUE(cache.Access(0));
  EXPECT_TRUE(cache.Access(32));  // same line
  EXPECT_FALSE(cache.Access(64));
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().hits, 2);
}

TEST(CacheTest, LruEvictsOldest) {
  // 1 set, 2 ways, 64B lines.
  SetAssociativeCache cache(128, 64, 2);
  cache.Access(0);       // A
  cache.Access(64);      // B
  cache.Access(0);       // A hit: B is now LRU
  cache.Access(128);     // C evicts B
  EXPECT_TRUE(cache.Access(0));     // A survives
  EXPECT_FALSE(cache.Access(64));   // B gone
}

TEST(CacheTest, WorkingSetLargerThanCacheThrashes) {
  SetAssociativeCache cache(4096, 64, 4);
  // Two sequential passes over 16KB: cyclic eviction -> second pass misses.
  for (int pass = 0; pass < 2; ++pass) {
    cache.AccessRange(0, 16384);
  }
  EXPECT_GT(cache.stats().MissRate(), 0.9);
}

TEST(CacheTest, WorkingSetWithinCacheReuses) {
  SetAssociativeCache cache(64 * 1024, 64, 8);
  for (int pass = 0; pass < 4; ++pass) {
    cache.AccessRange(0, 16384);
  }
  // 1 miss pass + 3 hit passes = 25% misses.
  EXPECT_NEAR(cache.stats().MissRate(), 0.25, 0.05);
}

TEST(CacheTest, TrueLruVictimSelection) {
  // 1 set, 4 ways: fill the set, touch the oldest way, and verify the
  // second-oldest is the one evicted (regression for a dead
  // `victim->tag == line` clause that used to shadow the LRU comparison).
  SetAssociativeCache cache(256, 64, 4);
  cache.Access(0);                 // A
  cache.Access(64);                // B
  cache.Access(128);               // C
  cache.Access(192);               // D
  EXPECT_TRUE(cache.Access(0));    // touch A: B is now LRU
  cache.Access(256);               // E must evict B
  EXPECT_TRUE(cache.Access(0));    // A survives
  EXPECT_TRUE(cache.Access(128));  // C survives
  EXPECT_TRUE(cache.Access(192));  // D survives
  EXPECT_TRUE(cache.Access(256));  // E resident
  EXPECT_FALSE(cache.Access(64));  // B was the victim
}

TEST(CacheTest, ResetClearsResidencyAndStats) {
  SetAssociativeCache cache(1024, 64, 4);
  cache.AccessRange(0, 1024);
  cache.Reset();
  EXPECT_EQ(cache.stats().accesses, 0);
  EXPECT_FALSE(cache.Access(0));  // cold again after the epoch bump
  EXPECT_TRUE(cache.Access(0));
}

TEST(CacheTest, AccessRangeCountsLines) {
  SetAssociativeCache cache(1 << 20, 128, 8);
  EXPECT_EQ(cache.AccessRange(0, 1024), 8);   // 1024/128
  EXPECT_EQ(cache.AccessRange(0, 1024), 0);   // all hits
  EXPECT_EQ(cache.AccessRange(100, 100), 0);  // within cached lines
}

// --- Architectures -------------------------------------------------------------

TEST(ArchTest, PresetsScaleUpward) {
  GpuArch v = VoltaV100(), a = AmpereA100(), h = HopperH100();
  EXPECT_LT(v.fp16_tflops, a.fp16_tflops);
  EXPECT_LT(a.fp16_tflops, h.fp16_tflops);
  EXPECT_LT(v.dram_gbps, a.dram_gbps);
  EXPECT_LT(a.dram_gbps, h.dram_gbps);
  EXPECT_LT(v.smem_per_sm, a.smem_per_sm);
  EXPECT_EQ(AllArchitectures().size(), 3u);
}

TEST(ArchTest, ArchFromNameAcceptsChipCodesAndArchitectureNames) {
  const std::pair<std::string, std::string> kSpellings[] = {
      {"v100", "Volta"},  {"a100", "Ampere"},   {"h100", "Hopper"},
      {"volta", "Volta"}, {"ampere", "Ampere"}, {"hopper", "Hopper"}};
  for (const auto& [lower, arch_name] : kSpellings) {
    std::string upper = lower;
    for (char& c : upper) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    std::string capitalized = lower;
    capitalized[0] = upper[0];
    for (const std::string& spelling : {lower, upper, capitalized}) {
      StatusOr<GpuArch> parsed = ArchFromName(spelling);
      ASSERT_TRUE(parsed.ok()) << spelling << ": " << parsed.status().ToString();
      EXPECT_EQ(parsed->name, arch_name) << spelling;
    }
  }
  EXPECT_EQ(ArchFromName("b200").status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(ArchFromName("").ok());
}

// --- Cost model ------------------------------------------------------------------

KernelSpec SimpleKernel() {
  KernelSpec k;
  k.name = "k";
  k.grid = 1024;
  k.threads_per_block = 256;
  k.smem_per_block = 16 * 1024;
  k.regs_per_block_bytes = 32 * 1024;
  k.flops = 1'000'000'000;
  TensorTraffic r;
  r.tensor = "in";
  r.unique_bytes = 64 * 1024 * 1024;
  r.per_block_bytes = r.unique_bytes / k.grid;
  k.reads.push_back(r);
  TensorTraffic w;
  w.tensor = "out";
  w.unique_bytes = 64 * 1024 * 1024;
  k.writes.push_back(w);
  return k;
}

TEST(CostModelTest, OccupancyLimits) {
  CostModel cm(AmpereA100());
  KernelSpec k = SimpleKernel();
  int bps = cm.BlocksPerSm(k);
  EXPECT_GT(bps, 0);
  k.smem_per_block = 100 * 1024;
  EXPECT_EQ(cm.BlocksPerSm(k), 1);
  k.smem_per_block = 200 * 1024;  // over the per-SM budget
  EXPECT_EQ(cm.BlocksPerSm(k), 0);
}

TEST(CostModelTest, UnlaunchableKernelIsPenalized) {
  CostModel cm(VoltaV100());
  KernelSpec k = SimpleKernel();
  k.smem_per_block = 200 * 1024;
  EXPECT_GT(cm.EstimateKernel(k).time_us, 1e9);
}

TEST(CostModelTest, MoreTrafficCostsMore) {
  CostModel cm(AmpereA100());
  KernelSpec k = SimpleKernel();
  double base = cm.EstimateKernel(k).time_us;
  k.reads[0].unique_bytes *= 4;
  k.reads[0].per_block_bytes *= 4;
  EXPECT_GT(cm.EstimateKernel(k).time_us, base);
}

TEST(CostModelTest, SharedOperandWithinL2IsFetchedOnce) {
  CostModel cm(AmpereA100());
  TensorTraffic r;
  r.unique_bytes = 8 * 1024 * 1024;  // fits in 40MB L2
  r.per_block_bytes = r.unique_bytes;
  r.shared_across_blocks = true;
  EXPECT_EQ(cm.DramReadBytes(r, /*grid=*/256), r.unique_bytes);
}

TEST(CostModelTest, SharedOperandBeyondL2Refetches) {
  CostModel cm(VoltaV100());  // 6MB L2
  TensorTraffic r;
  r.unique_bytes = 512LL * 1024 * 1024;
  r.per_block_bytes = r.unique_bytes;
  r.shared_across_blocks = true;
  std::int64_t dram = cm.DramReadBytes(r, /*grid=*/8);
  EXPECT_GT(dram, r.unique_bytes * 3);  // most re-reads spill
}

TEST(CostModelTest, MultiPassStreamBeyondL2CostsPerPass) {
  CostModel cm(VoltaV100());
  TensorTraffic r;
  r.unique_bytes = 1LL << 30;  // 1GB, far beyond L2
  r.per_block_bytes = r.unique_bytes / 1024;
  r.touches_per_byte = 2.0;  // two passes
  std::int64_t dram = cm.DramReadBytes(r, 1024);
  EXPECT_GT(dram, static_cast<std::int64_t>(1.9 * static_cast<double>(r.unique_bytes)));
}

TEST(CostModelTest, LaunchOverheadFloorsTinyKernels) {
  GpuArch arch = AmpereA100();
  CostModel cm(arch);
  KernelSpec k;
  k.grid = 1;
  k.flops = 10;
  EXPECT_GE(cm.EstimateKernel(k).time_us, arch.launch_overhead_us);
}

TEST(CostModelTest, SmallGridCannotSaturateBandwidth) {
  CostModel cm(AmpereA100());
  KernelSpec wide = SimpleKernel();
  KernelSpec narrow = SimpleKernel();
  narrow.grid = 2;
  narrow.reads[0].per_block_bytes = narrow.reads[0].unique_bytes / 2;
  double t_wide = cm.EstimateKernel(wide).dram_us;
  double t_narrow = cm.EstimateKernel(narrow).dram_us;
  EXPECT_GT(t_narrow, t_wide * 1.5);
}

TEST(CostModelTest, EstimateSumsKernels) {
  CostModel cm(AmpereA100());
  std::vector<KernelSpec> kernels{SimpleKernel(), SimpleKernel()};
  ExecutionReport r = cm.Estimate(kernels);
  EXPECT_EQ(r.kernel_count, 2);
  EXPECT_NEAR(r.time_us, 2 * cm.EstimateKernel(kernels[0]).time_us, 1e-6);
}

// --- Memory simulation ------------------------------------------------------------

TEST(MemorySimTest, FusionReducesTrafficAndMisses) {
  GpuArch arch = AmpereA100();
  AddressMap am;
  std::int64_t mb = 256LL * 1024 * 1024;

  // Unfused: producer writes a big intermediate, consumer reads it back.
  KernelSpec producer;
  producer.name = "producer";
  producer.grid = mb / 32768;
  TensorTraffic w;
  w.tensor = "intermediate";
  w.unique_bytes = mb;
  w.base_address = am.Assign("intermediate", mb);
  producer.writes.push_back(w);

  KernelSpec consumer;
  consumer.name = "consumer";
  consumer.grid = mb / 32768;
  TensorTraffic r;
  r.tensor = "intermediate";
  r.unique_bytes = mb;
  r.per_block_bytes = mb / consumer.grid;
  r.base_address = am.Assign("intermediate", mb);
  consumer.reads.push_back(r);

  MemorySim sim(arch);
  ExecutionReport unfused = sim.Run({producer, consumer});

  // Fused: the intermediate never exists.
  MemorySim sim2(arch);
  ExecutionReport fused = sim2.Run({});
  EXPECT_GT(unfused.dram_bytes, 0);
  EXPECT_EQ(fused.dram_bytes, 0);
  EXPECT_GT(unfused.l2_misses, 0);
}

TEST(MemorySimTest, L2ServesProducerConsumerReuseWhenSmall) {
  GpuArch arch = AmpereA100();
  AddressMap am;
  std::int64_t small = 4LL * 1024 * 1024;  // fits in 40MB L2

  KernelSpec producer;
  producer.grid = 64;
  TensorTraffic w;
  w.tensor = "t";
  w.unique_bytes = small;
  w.base_address = am.Assign("t", small);
  producer.writes.push_back(w);

  KernelSpec consumer;
  consumer.grid = 64;
  TensorTraffic r = w;
  r.per_block_bytes = small / consumer.grid;
  consumer.reads.push_back(r);

  MemorySim sim(arch);
  ExecutionReport rep = sim.Run({producer, consumer});
  // The consumer's reads mostly hit in L2 (installed by the producer).
  EXPECT_LT(static_cast<double>(rep.l2_misses),
            0.2 * static_cast<double>(rep.l2_accesses));
}

TEST(MemorySimTest, WriteTraceClampedToTensorEnd) {
  // grid=2, per_block=256B, unique=384B: block 1's write starts at byte 256
  // of the tensor and must stop at its last byte (383), not walk cache lines
  // past the allocation (regression for an unclamped `base + per_block - 1`).
  GpuArch arch = AmpereA100();  // 128B lines
  KernelSpec k;
  k.grid = 2;
  TensorTraffic w;
  w.tensor = "out";
  w.unique_bytes = 384;
  w.per_block_bytes = 256;
  w.base_address = 0;
  k.writes.push_back(w);

  MemorySim sim(arch);
  ExecutionReport rep = sim.Run({k});
  // Lines 0-1 from block 0, line 2 (clamped) from block 1. Unclamped, block 1
  // would also touch line 3 and report 512 bytes.
  EXPECT_EQ(rep.l2_accesses, 3);
  EXPECT_EQ(rep.dram_bytes, 3 * arch.cache_line_bytes);
}

// Builds the unfused producer->consumer pair over a `bytes`-sized
// intermediate used by the hit-rate pin tests below.
std::vector<KernelSpec> ProducerConsumerPair(std::int64_t bytes, std::int64_t grid) {
  KernelSpec producer;
  producer.name = "producer";
  producer.grid = grid;
  TensorTraffic w;
  w.tensor = "intermediate";
  w.unique_bytes = bytes;
  w.base_address = 0;
  producer.writes.push_back(w);

  KernelSpec consumer;
  consumer.name = "consumer";
  consumer.grid = grid;
  TensorTraffic r = w;
  r.per_block_bytes = bytes / grid;
  consumer.reads.push_back(r);
  return {producer, consumer};
}

// The next three tests pin the simulator's hit-rate gauges to the values the
// pure trace-driven implementation produced before the range-batched /
// analytical fast path landed. Acceptance bar: within 1%. (The integer DRAM
// counts are asserted exactly — the fast path reproduces them bit-for-bit.)

TEST(MemorySimTest, HitRatePinUnfused256Mb) {
  std::int64_t mb = 256LL * 1024 * 1024;
  MemorySim sim(AmpereA100());
  ExecutionReport rep = sim.Run(ProducerConsumerPair(mb, mb / 32768));
  double l1_hit = 1.0 - static_cast<double>(rep.l1_misses) / static_cast<double>(rep.l1_accesses);
  double l2_hit = 1.0 - static_cast<double>(rep.l2_misses) / static_cast<double>(rep.l2_accesses);
  EXPECT_NEAR(l1_hit, 0.0, 0.01);  // streaming: every line cold in L1
  EXPECT_NEAR(l2_hit, 0.5, 0.01);  // writes install, 256MB reads blow 40MB L2
  EXPECT_EQ(rep.dram_bytes, 536870912);
  EXPECT_EQ(rep.l1_accesses, 2097152);
  EXPECT_EQ(rep.l2_accesses, 4194304);
}

TEST(MemorySimTest, HitRatePinL2Reuse4Mb) {
  std::int64_t small = 4LL * 1024 * 1024;  // fits in 40MB L2
  MemorySim sim(AmpereA100());
  ExecutionReport rep = sim.Run(ProducerConsumerPair(small, 64));
  double l2_hit = 1.0 - static_cast<double>(rep.l2_misses) / static_cast<double>(rep.l2_accesses);
  EXPECT_NEAR(l2_hit, 1.0, 0.01);  // producer installed every line
  EXPECT_EQ(rep.dram_bytes, 4194304);
  EXPECT_EQ(rep.l1_accesses, 32768);
  EXPECT_EQ(rep.l2_accesses, 65536);
}

TEST(MemorySimTest, HitRatePinSampled64Gb) {
  KernelSpec big;
  big.grid = 1 << 20;
  TensorTraffic r;
  r.tensor = "huge";
  r.unique_bytes = 1LL << 36;  // 64GB
  r.per_block_bytes = r.unique_bytes / big.grid;
  r.base_address = 0;
  big.reads.push_back(r);

  MemorySim sim(AmpereA100());
  sim.set_access_budget(100000);
  ExecutionReport rep = sim.Run({big});
  EXPECT_EQ(rep.l1_misses, rep.l1_accesses);  // pure streaming: 0% hit
  EXPECT_EQ(rep.l2_misses, rep.l2_accesses);
  EXPECT_EQ(rep.dram_bytes, 68719476735);
}

TEST(MemorySimTest, StreamingShortcutMatchesTracePath) {
  // The analytical shortcut must be exact, not approximate: replaying the
  // same workload with the shortcut disabled (full trace) yields identical
  // counters.
  std::int64_t mb = 256LL * 1024 * 1024;
  std::vector<KernelSpec> kernels = ProducerConsumerPair(mb, mb / 32768);

  MemorySim fast(AmpereA100());
  ExecutionReport a = fast.Run(kernels);
  MemorySim slow(AmpereA100());
  slow.set_streaming_shortcut(false);
  ExecutionReport b = slow.Run(kernels);

  EXPECT_EQ(a.l1_accesses, b.l1_accesses);
  EXPECT_EQ(a.l1_misses, b.l1_misses);
  EXPECT_EQ(a.l2_accesses, b.l2_accesses);
  EXPECT_EQ(a.l2_misses, b.l2_misses);
  EXPECT_EQ(a.dram_bytes, b.dram_bytes);
}

TEST(MemorySimTest, SamplingKeepsBudget) {
  GpuArch arch = AmpereA100();
  AddressMap am;
  KernelSpec big;
  big.grid = 1 << 20;
  TensorTraffic r;
  r.tensor = "huge";
  r.unique_bytes = 1LL << 36;  // 64GB
  r.per_block_bytes = r.unique_bytes / big.grid;
  r.base_address = am.Assign("huge", r.unique_bytes);
  big.reads.push_back(r);

  MemorySim sim(arch);
  sim.set_access_budget(100000);
  ExecutionReport rep = sim.Run({big});  // must terminate quickly
  // Scaled counts still reflect the full kernel.
  EXPECT_GT(rep.l1_accesses, static_cast<std::int64_t>(1e8));
}

TEST(ExecutionReportTest, ScaledMultipliesEverything) {
  ExecutionReport r;
  r.time_us = 10;
  r.dram_bytes = 100;
  r.kernel_count = 2;
  ExecutionReport s = r.Scaled(3);
  EXPECT_EQ(s.time_us, 30);
  EXPECT_EQ(s.dram_bytes, 300);
  EXPECT_EQ(s.kernel_count, 6);
}

TEST(AddressMapTest, StableAssignments) {
  AddressMap am;
  std::int64_t a = am.Assign("x", 1000);
  std::int64_t b = am.Assign("y", 1000);
  EXPECT_NE(a, b);
  EXPECT_EQ(am.Assign("x", 1000), a);
}

}  // namespace
}  // namespace spacefusion
