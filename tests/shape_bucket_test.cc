// The dynamic-shape battery: bucketing policy and label parsing, per-tensor
// pad/slice layouts, the bucket-tagged cache keys (options digest and .sfpc
// blobs), the runtime dispatch table, and the two acceptance pins of the
// shape-bucket design — a new shape falling into an already-tuned bucket is
// served with zero tuner invocations, and config transfer from a neighboring
// bucket measurably cuts a cold bucket's tuning time. The differential suite
// at the bottom asserts bucket-dispatched execution against a direct compile
// at the exact shape for every zoo model, several shapes per bucket.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/engine.h"
#include "src/core/program_store.h"
#include "src/core/shape_dispatch.h"
#include "src/exec/jit_executor.h"
#include "src/exec/reference_executor.h"
#include "src/exec/schedule_executor.h"
#include "src/graph/models.h"
#include "src/graph/shape_bucket.h"
#include "src/graph/subgraphs.h"
#include "src/obs/metrics.h"
#include "src/obs/stats.h"
#include "src/sim/arch.h"
#include "tests/test_dirs.h"

namespace spacefusion {
namespace {

std::string UniqueTestDir(const std::string& tag) {
  const std::string dir = testing_util::UniqueTestDir("sf-shape-bucket", tag);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string ProgramFingerprint(const CompiledSubprogram& sub) {
  std::string fp;
  for (const SmgSchedule& kernel : sub.program.kernels) {
    fp += kernel.ToString();
  }
  return fp;
}

// ---- ShapeKey / labels ----------------------------------------------------

TEST(ShapeKeyTest, LabelRoundTrips) {
  const ShapeKey key{4, 384};
  EXPECT_EQ(key.Label(), "b4s384");
  StatusOr<ShapeKey> parsed = ParseShapeLabel("b4s384");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, key);
}

TEST(ShapeKeyTest, ParseRejectsMalformedLabels) {
  for (const char* bad : {"", "b2", "s128", "2s128", "b2s", "bXs8", "b2s8x", "b0s8", "b2s0",
                          "b-1s8", "b2s-8"}) {
    EXPECT_FALSE(ParseShapeLabel(bad).ok()) << bad;
  }
}

TEST(ShapeKeyTest, RoundUpPow2) {
  EXPECT_EQ(RoundUpPow2(1), 1);
  EXPECT_EQ(RoundUpPow2(2), 2);
  EXPECT_EQ(RoundUpPow2(3), 4);
  EXPECT_EQ(RoundUpPow2(100), 128);
  EXPECT_EQ(RoundUpPow2(128), 128);
  EXPECT_EQ(RoundUpPow2(129), 256);
}

// ---- BucketingPolicy ------------------------------------------------------

TEST(BucketingPolicyTest, PowersOfTwoRoundsBothAxesUp) {
  const BucketingPolicy policy = BucketingPolicy::PowersOfTwo();
  EXPECT_EQ(policy.BucketFor({3, 100}), (ShapeKey{4, 128}));
  EXPECT_EQ(policy.BucketFor({1, 128}), (ShapeKey{1, 128}));
  EXPECT_EQ(policy.BucketFor({1, 129}), (ShapeKey{1, 256}));
  EXPECT_FALSE(policy.is_identity());
}

TEST(BucketingPolicyTest, IdentityMapsEveryShapeToItself) {
  const BucketingPolicy policy = BucketingPolicy::Identity();
  EXPECT_EQ(policy.BucketFor({3, 100}), (ShapeKey{3, 100}));
  EXPECT_TRUE(policy.is_identity());
}

TEST(BucketingPolicyTest, FromSpecRoutesSeqAxisThroughExplicitBuckets) {
  StatusOr<BucketingPolicy> policy = BucketingPolicy::FromSpec("32,48,128");
  ASSERT_TRUE(policy.ok());
  EXPECT_EQ(policy->BucketFor({1, 33}), (ShapeKey{1, 48}));
  EXPECT_EQ(policy->BucketFor({1, 48}), (ShapeKey{1, 48}));
  EXPECT_EQ(policy->BucketFor({1, 128}), (ShapeKey{1, 128}));
  // Above the largest listed bucket: power-of-two fallback.
  EXPECT_EQ(policy->BucketFor({1, 200}), (ShapeKey{1, 256}));
  // The batch axis always rounds to powers of two.
  EXPECT_EQ(policy->BucketFor({3, 40}), (ShapeKey{4, 48}));
}

TEST(BucketingPolicyTest, FromSpecRejectsMalformedSpecs) {
  for (const char* bad : {"", "abc", "48,32", "32,,64", "0,32", "-8,16"}) {
    EXPECT_FALSE(BucketingPolicy::FromSpec(bad).ok()) << bad;
  }
}

TEST(BucketingPolicyTest, BucketDistanceIsLog2L1) {
  EXPECT_EQ(BucketDistance({1, 128}, {1, 128}), 0.0);
  EXPECT_EQ(BucketDistance({1, 128}, {1, 256}), 1.0);
  EXPECT_EQ(BucketDistance({1, 256}, {1, 128}), 1.0);
  EXPECT_EQ(BucketDistance({2, 128}, {1, 256}), 2.0);
  // The nearest neighbor of b1s256 among {b1s128, b1s1024} is b1s128.
  EXPECT_LT(BucketDistance({1, 256}, {1, 128}), BucketDistance({1, 256}, {1, 1024}));
}

// ---- Pad / slice layouts --------------------------------------------------

TEST(PadSliceTest, TokensByHiddenRoundTripsLosslessly) {
  TensorLayout layout;
  layout.name = "x";
  layout.dims = {{SubDim{DimAxis::kBatch, 1}, SubDim{DimAxis::kSeq, 1}},
                 {SubDim{DimAxis::kFixed, 8}}};
  const AxisExtents exact{2, 5};
  const AxisExtents bucket{2, 8};
  EXPECT_EQ(LayoutShape(layout, exact), (Shape{10, 8}));
  EXPECT_EQ(LayoutShape(layout, bucket), (Shape{16, 8}));

  const Tensor t = Tensor::Random(LayoutShape(layout, exact), /*seed=*/11);
  StatusOr<Tensor> padded = PadToBucket(layout, t, exact, bucket);
  ASSERT_TRUE(padded.ok()) << padded.status().ToString();
  EXPECT_EQ(padded->shape(), LayoutShape(layout, bucket));
  // Padded rows (seq 5..7 of each batch) are zero-filled.
  EXPECT_EQ(padded->at({5, 0}), 0.0f);
  EXPECT_EQ(padded->at({8 + 6, 3}), 0.0f);
  // The real region survives: row (b=1, s=2) moved from flat row 7 to 10.
  EXPECT_EQ(padded->at({10, 4}), t.at({7, 4}));

  StatusOr<Tensor> back = SliceToExact(layout, *padded, exact, bucket);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->shape(), t.shape());
  EXPECT_EQ(MaxAbsDiff(*back, t), 0.0f);
}

TEST(PadSliceTest, AttentionMaskPadsKvColumnsWithMaskValue) {
  TensorLayout mask;
  mask.name = "mask";
  mask.dims = {{SubDim{DimAxis::kBatch, 1}, SubDim{DimAxis::kFixed, 2}},
               {SubDim{DimAxis::kSeq, 1}},
               {SubDim{DimAxis::kSeq, 1}}};
  mask.attn_mask = true;
  const AxisExtents exact{1, 3};
  const AxisExtents bucket{1, 4};
  const Tensor t = Tensor::Zeros(LayoutShape(mask, exact));
  StatusOr<Tensor> padded = PadToBucket(mask, t, exact, bucket);
  ASSERT_TRUE(padded.ok()) << padded.status().ToString();
  for (std::int64_t h = 0; h < 2; ++h) {
    for (std::int64_t q = 0; q < 4; ++q) {
      for (std::int64_t kv = 0; kv < 4; ++kv) {
        const float v = padded->at({h, q, kv});
        if (kv >= 3) {
          // Padded key/value columns are masked out hard, so the padded
          // softmax region underflows to exactly zero.
          EXPECT_EQ(v, kMaskPadValue) << h << "," << q << "," << kv;
        } else {
          // Real columns stay 0 even in padded query rows — a fully padded
          // row must remain NaN-free through softmax.
          EXPECT_EQ(v, 0.0f) << h << "," << q << "," << kv;
        }
      }
    }
  }
}

// Every padding layout of the bucketed BERT factory embeds the real region
// and slices it back bit for bit; every padded element reads 0, or
// kMaskPadValue in an attention mask.
TEST(PadSliceTest, EveryBertLayoutRoundTripsBitForBit) {
  constexpr float kReal = 7.0f;  // marks the real region; no padding reads it
  for (std::int64_t seq : {9, 17, 33, 64}) {
    const BucketedModel m =
        BuildModelBucketed(ModelKind::kBert, {1, seq}, BucketingPolicy::PowersOfTwo());
    const AxisExtents exact = m.ExactExtents();
    const AxisExtents bucket = m.BucketExtents();
    for (const SubprogramLayout& sub : m.layouts) {
      std::vector<TensorLayout> layouts = sub.inputs;
      layouts.insert(layouts.end(), sub.outputs.begin(), sub.outputs.end());
      for (const TensorLayout& layout : layouts) {
        const std::string where = layout.name + " at seq " + std::to_string(seq);
        const Tensor t = Tensor::Random(LayoutShape(layout, exact), /*seed=*/seq);
        StatusOr<Tensor> padded = PadToBucket(layout, t, exact, bucket);
        ASSERT_TRUE(padded.ok()) << where << ": " << padded.status().ToString();
        ASSERT_EQ(padded->shape(), LayoutShape(layout, bucket)) << where;
        StatusOr<Tensor> back = SliceToExact(layout, *padded, exact, bucket);
        ASSERT_TRUE(back.ok()) << where << ": " << back.status().ToString();
        ASSERT_EQ(back->shape(), t.shape()) << where;
        const size_t bytes = static_cast<size_t>(t.volume()) * sizeof(float);
        EXPECT_EQ(std::memcmp(back->data(), t.data(), bytes), 0) << where;

        StatusOr<Tensor> marked =
            PadToBucket(layout, Tensor::Full(t.shape(), kReal), exact, bucket);
        ASSERT_TRUE(marked.ok()) << where;
        std::int64_t real = 0;
        std::int64_t stray = 0;
        for (std::int64_t i = 0; i < marked->volume(); ++i) {
          const float v = marked->at(i);
          real += v == kReal ? 1 : 0;
          stray += v == kReal || v == 0.0f || (layout.attn_mask && v == kMaskPadValue) ? 0 : 1;
        }
        EXPECT_EQ(real, t.volume()) << where;
        EXPECT_EQ(stray, 0) << where;
      }
    }
  }
}

// Degenerate layouts return instead of hanging or reading an empty tensor:
// a layout without sub-dims copies its one element, a zero extent copies
// nothing, and an exact extent beyond the bucket's is refused.
TEST(PadSliceTest, RankZeroAndZeroExtentLayoutsReturn) {
  const AxisExtents one{1, 1};
  const AxisExtents wide{2, 8};
  for (const std::vector<std::vector<SubDim>>& dims :
       {std::vector<std::vector<SubDim>>{}, std::vector<std::vector<SubDim>>{{}}}) {
    TensorLayout scalar;
    scalar.dims = dims;
    StatusOr<Tensor> padded =
        PadToBucket(scalar, Tensor::Full(LayoutShape(scalar, one), 3.0f), one, wide);
    ASSERT_TRUE(padded.ok()) << padded.status().ToString();
    ASSERT_EQ(padded->volume(), 1);
    EXPECT_EQ(padded->at(0), 3.0f);
    StatusOr<Tensor> back = SliceToExact(scalar, *padded, one, wide);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->at(0), 3.0f);
  }

  TensorLayout tokens;
  tokens.dims = {{SubDim{DimAxis::kBatch, 1}, SubDim{DimAxis::kSeq, 1}},
                 {SubDim{DimAxis::kFixed, 8}}};
  TensorLayout mask;
  mask.dims = {{SubDim{DimAxis::kBatch, 1}, SubDim{DimAxis::kFixed, 2}},
               {SubDim{DimAxis::kSeq, 1}},
               {SubDim{DimAxis::kSeq, 1}}};
  mask.attn_mask = true;
  for (const TensorLayout& layout : {tokens, mask}) {
    const AxisExtents empty{1, 0};
    for (const AxisExtents& bucket : {empty, AxisExtents{1, 4}}) {
      StatusOr<Tensor> padded =
          PadToBucket(layout, Tensor::Zeros(LayoutShape(layout, empty)), empty, bucket);
      ASSERT_TRUE(padded.ok()) << padded.status().ToString();
      EXPECT_EQ(padded->shape(), LayoutShape(layout, bucket));
      StatusOr<Tensor> back = SliceToExact(layout, *padded, empty, bucket);
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      EXPECT_EQ(back->volume(), 0);
    }
    const AxisExtents longer{1, 5};
    const AxisExtents shorter{1, 4};
    EXPECT_EQ(PadToBucket(layout, Tensor::Zeros(LayoutShape(layout, longer)), longer, shorter)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(SliceToExact(layout, Tensor::Zeros(LayoutShape(layout, shorter)), longer, shorter)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
}

// ---- Bucket-tagged cache keys ---------------------------------------------

TEST(ShapeBucketKeyTest, OptionsDigestMixesTheBucket) {
  CompileOptions plain{AmpereA100()};
  CompileOptions bucketed = plain;
  bucketed.shape_bucket = "b1s128";
  CompileOptions other = plain;
  other.shape_bucket = "b1s256";
  EXPECT_NE(CompileOptionsDigest(plain), CompileOptionsDigest(bucketed));
  EXPECT_NE(CompileOptionsDigest(bucketed), CompileOptionsDigest(other));
  // Shape-agnostic compiles keep the legacy digest.
  EXPECT_EQ(CompileOptionsDigest(plain), CompileOptionsDigest(CompileOptions{AmpereA100()}));
}

TEST(ShapeBucketKeyTest, PersistentEntriesGoStaleAcrossBuckets) {
  const Graph g = BuildMha(2, 16, 16, 8);
  CompilerEngine compiler{CompileOptions(AmpereA100())};
  StatusOr<CompiledSubprogram> compiled = compiler.Compile(g);
  ASSERT_TRUE(compiled.ok());

  const PersistentProgramCache cache(UniqueTestDir("sfpc"));
  const std::uint64_t fp = g.StructuralHash();
  const std::uint64_t digest = CompileOptionsDigest(compiler.options());
  const std::string arch = compiler.options().arch.name;
  const std::string canonical = g.CanonicalForm();
  ASSERT_TRUE(cache.Store(fp, digest, arch, canonical, *compiled, "b1s128").ok());

  CompiledSubprogram out;
  std::string detail;
  EXPECT_EQ(cache.Load(fp, digest, arch, canonical, &out, &detail, "b1s128"),
            PersistentProgramCache::LoadResult::kHit);
  // A shape-agnostic request must not be served a bucketed entry, nor a
  // bucketed request an entry from another bucket.
  EXPECT_EQ(cache.Load(fp, digest, arch, canonical, &out, &detail, ""),
            PersistentProgramCache::LoadResult::kStale);
  EXPECT_NE(detail.find("bucket"), std::string::npos) << detail;
  EXPECT_EQ(cache.Load(fp, digest, arch, canonical, &out, &detail, "b1s256"),
            PersistentProgramCache::LoadResult::kStale);
}

TEST(ShapeBucketKeyTest, PersistedProgramRoundTripsItsBucket) {
  const Graph g = BuildMha(2, 16, 16, 8);
  CompilerEngine compiler{CompileOptions(AmpereA100())};
  StatusOr<CompiledSubprogram> compiled = compiler.Compile(g);
  ASSERT_TRUE(compiled.ok());

  PersistedProgram program;
  program.arch = "A100";
  program.options_digest = 7;
  program.fingerprint = 9;
  program.canonical = g.CanonicalForm();
  program.bucket = "b2s64";
  program.compiled = *compiled;
  PersistedProgram decoded;
  ASSERT_TRUE(DecodePersistedProgram(EncodePersistedProgram(program), &decoded).ok());
  EXPECT_EQ(decoded.bucket, "b2s64");
}

// ---- Bucketed model factory -----------------------------------------------

TEST(BucketedFactoryTest, SameBucketShapesBuildIdenticalGraphs) {
  const BucketingPolicy pow2 = BucketingPolicy::PowersOfTwo();
  for (ModelKind kind : AllModelKinds()) {
    const BucketedModel a = BuildModelBucketed(kind, {1, 20}, pow2);
    const BucketedModel b = BuildModelBucketed(kind, {1, 31}, pow2);
    EXPECT_EQ(a.bucket_key, b.bucket_key) << a.exact.name;
    ASSERT_EQ(a.model.subprograms.size(), b.model.subprograms.size()) << a.exact.name;
    for (size_t i = 0; i < a.model.subprograms.size(); ++i) {
      // Structural identity is what turns a second shape in a tuned bucket
      // into a pure cache hit.
      EXPECT_EQ(a.model.subprograms[i].graph.StructuralHash(),
                b.model.subprograms[i].graph.StructuralHash())
          << a.exact.name << " subprogram " << i;
    }
  }
}

TEST(BucketedFactoryTest, LayoutsParallelTheGraphInputsAndOutputs) {
  for (ModelKind kind : AllModelKinds()) {
    const BucketedModel m = BuildModelBucketed(kind, {1, 20}, BucketingPolicy::PowersOfTwo());
    ASSERT_EQ(m.layouts.size(), m.model.subprograms.size()) << m.exact.name;
    for (size_t i = 0; i < m.layouts.size(); ++i) {
      const Graph& g = m.model.subprograms[i].graph;
      EXPECT_EQ(m.layouts[i].inputs.size(), g.InputIds().size())
          << m.exact.name << "/" << g.name();
      EXPECT_EQ(m.layouts[i].outputs.size(), g.OutputIds().size())
          << m.exact.name << "/" << g.name();
      // Every input layout resolves to the declared tensor shape at the
      // bucket extents (the padding contract is per-dim exact).
      const std::vector<TensorId> inputs = g.InputIds();
      for (size_t j = 0; j < inputs.size(); ++j) {
        EXPECT_EQ(LayoutShape(m.layouts[i].inputs[j], m.BucketExtents()),
                  g.tensor(inputs[j]).shape)
            << m.exact.name << "/" << g.name() << " input " << j;
      }
    }
  }
}

TEST(BucketedFactoryTest, IdentityPolicyBuildsAtTheExactShape) {
  const BucketedModel m =
      BuildModelBucketed(ModelKind::kBert, {2, 33}, BucketingPolicy::Identity());
  EXPECT_EQ(m.bucket_key, (ShapeKey{2, 33}));
  EXPECT_EQ(m.exact.batch, m.bucket.batch);
  EXPECT_EQ(m.exact.seq, m.bucket.seq);
}

// ---- Engine: zero-tuner bucket hits and config transfer -------------------

TEST(ShapeBucketEngineTest, SecondShapeInBucketIsServedWithZeroTunerInvocations) {
  MetricsRegistry::Global().Reset();
  CompilerEngine engine{CompileOptions(AmpereA100())};

  StatusOr<ShapeCompileResult> cold = engine.CompileModelForShape(ModelKind::kBert, {1, 100});
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->bucketed.bucket_key.Label(), "b1s128");
  EXPECT_FALSE(cold->bucket_hit);
  EXPECT_EQ(cold->compiled.report.outcome, "cold");
  EXPECT_EQ(cold->compiled.report.shape, "b1s100");
  EXPECT_EQ(cold->compiled.report.bucket, "b1s128");
  EXPECT_GT(cold->compiled.compile_time.tuning_s, 0.0);
  EXPECT_EQ(engine.cache_stats().bucket_misses, 1);

  // The acceptance pin: a shape never compiled before, falling into an
  // already-tuned bucket, runs zero tuner invocations.
  StatusOr<ShapeCompileResult> warm = engine.CompileModelForShape(ModelKind::kBert, {1, 120});
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->bucket_hit);
  EXPECT_EQ(warm->compiled.report.outcome, "cache_hit");
  EXPECT_EQ(warm->compiled.report.shape, "b1s120");
  EXPECT_EQ(warm->compiled.report.bucket, "b1s128");
  EXPECT_TRUE(warm->compiled.report.bucket_hit);
  // compile_time reports the *stored* tuning cost of the served programs
  // (the warm-start contract: hits answer "what did these programs cost"),
  // so zero tuner work shows as zero Tune-pass wall time, not zero tuning_s.
  EXPECT_EQ(warm->compiled.compile_time.tuning_s, cold->compiled.compile_time.tuning_s);
  EXPECT_EQ(warm->compiled.report.PassWallMs("Tune"), 0.0);
  EXPECT_EQ(warm->transfer_seeded, 0);
  EXPECT_EQ(engine.cache_stats().bucket_hits, 1);

  // Both shapes execute the same programs, bit for bit.
  ASSERT_EQ(cold->compiled.unique_subprograms.size(), warm->compiled.unique_subprograms.size());
  for (size_t i = 0; i < cold->compiled.unique_subprograms.size(); ++i) {
    EXPECT_EQ(ProgramFingerprint(cold->compiled.unique_subprograms[i]),
              ProgramFingerprint(warm->compiled.unique_subprograms[i]));
  }
}

TEST(ShapeBucketEngineTest, TransferFromNeighborBucketCutsTuningTime) {
  CompilerEngine seeded{CompileOptions(AmpereA100())};
  StatusOr<ShapeCompileResult> first = seeded.CompileModelForShape(ModelKind::kBert, {1, 128});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->transfer_seeded, 0);  // nothing to transfer from yet

  StatusOr<ShapeCompileResult> neighbor = seeded.CompileModelForShape(ModelKind::kBert, {1, 200});
  ASSERT_TRUE(neighbor.ok());
  EXPECT_EQ(neighbor->bucketed.bucket_key.Label(), "b1s256");
  EXPECT_FALSE(neighbor->bucket_hit);
  EXPECT_GT(neighbor->transfer_seeded, 0);
  EXPECT_GT(neighbor->compiled.report.transfer_seeded, 0);
  EXPECT_EQ(seeded.cache_stats().transfer_seeded, neighbor->transfer_seeded);

  // The same bucket compiled cold on a fresh engine, without the b1s128
  // prior: no seeding, and strictly more simulated tuning time — the
  // neighbor's best config established a near-optimal incumbent early, so
  // more of the sweep early-quit.
  CompilerEngine fresh{CompileOptions(AmpereA100())};
  StatusOr<ShapeCompileResult> unseeded = fresh.CompileModelForShape(ModelKind::kBert, {1, 200});
  ASSERT_TRUE(unseeded.ok());
  EXPECT_EQ(unseeded->transfer_seeded, 0);
  EXPECT_LT(neighbor->compiled.compile_time.tuning_s, unseeded->compiled.compile_time.tuning_s);

  // Transfer reorders only *when* configs are measured, never what wins:
  // both engines must choose identical schedules.
  ASSERT_EQ(neighbor->compiled.unique_subprograms.size(),
            unseeded->compiled.unique_subprograms.size());
  for (size_t i = 0; i < neighbor->compiled.unique_subprograms.size(); ++i) {
    EXPECT_EQ(ProgramFingerprint(neighbor->compiled.unique_subprograms[i]),
              ProgramFingerprint(unseeded->compiled.unique_subprograms[i]));
  }
}

TEST(ShapeBucketEngineTest, RestartedEngineServesBucketFromDisk) {
  const std::string dir = UniqueTestDir("restart");
  EngineOptions options{CompileOptions(AmpereA100())};
  options.cache_dir = dir;
  std::string cold_fp;
  {
    CompilerEngine engine(options);
    StatusOr<ShapeCompileResult> cold = engine.CompileModelForShape(ModelKind::kT5, {1, 60});
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_EQ(cold->compiled.report.outcome, "cold");
    for (const CompiledSubprogram& sub : cold->compiled.unique_subprograms) {
      cold_fp += ProgramFingerprint(sub);
    }
  }
  // A restarted process: new engine, same cache dir, a different shape in the
  // same bucket — served from disk with zero tuner invocations.
  CompilerEngine engine(options);
  StatusOr<ShapeCompileResult> warm = engine.CompileModelForShape(ModelKind::kT5, {1, 50});
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->compiled.report.outcome, "persistent_hit");
  EXPECT_TRUE(warm->bucket_hit);
  EXPECT_EQ(warm->compiled.report.PassWallMs("Tune"), 0.0);
  EXPECT_EQ(engine.cache_stats().bucket_hits, 1);
  std::string warm_fp;
  for (const CompiledSubprogram& sub : warm->compiled.unique_subprograms) {
    warm_fp += ProgramFingerprint(sub);
  }
  EXPECT_EQ(warm_fp, cold_fp);
}

// ---- Dispatch table -------------------------------------------------------

TEST(ShapeDispatchTableTest, RoutesShapesToTheirBucketEntry) {
  CompilerEngine engine{CompileOptions(AmpereA100())};
  StatusOr<ShapeCompileResult> compiled = engine.CompileModelForShape(ModelKind::kBert, {1, 20});
  ASSERT_TRUE(compiled.ok());

  ShapeDispatchTable table(BucketingPolicy::PowersOfTwo());
  EXPECT_EQ(table.Route({1, 20}), nullptr);
  ASSERT_TRUE(table.Add(std::move(compiled).value()).ok());
  const ShapeDispatchTable::Entry* entry = table.Route({1, 20});
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->result.bucketed.bucket_key.Label(), "b1s32");
  // Every shape in the bucket routes to the same entry; a shape outside
  // does not.
  EXPECT_EQ(table.Route({1, 31}), entry);
  EXPECT_EQ(table.EntryFor({1, 32}), entry);
  EXPECT_EQ(table.Route({1, 33}), nullptr);
  EXPECT_EQ(table.Route({2, 20}), nullptr);
  EXPECT_EQ(table.Buckets(), std::vector<std::string>{"b1s32"});
  // The engine's dedupe aligns every subprogram with a compiled program.
  ASSERT_EQ(entry->sub_to_unique.size(), entry->result.bucketed.model.subprograms.size());
  for (size_t unique : entry->sub_to_unique) {
    EXPECT_LT(unique, entry->result.compiled.unique_subprograms.size());
  }
}

// Dispatch follows the engine's own dedupe: with every fingerprint
// colliding, the bucket still adds, and each subprogram routes to the
// program compiled from its own graph.
TEST(ShapeDispatchTableTest, CollidingFingerprintsRouteEachSubprogramToItsOwnProgram) {
  EngineOptions options{CompileOptions(AmpereA100())};
  options.fingerprint_fn = [](const Graph&) { return 42ULL; };
  CompilerEngine engine{options};
  StatusOr<ShapeCompileResult> compiled = engine.CompileModelForShape(ModelKind::kBert, {1, 64});
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ShapeDispatchTable table(BucketingPolicy::PowersOfTwo());
  const Status added = table.Add(std::move(compiled).value());
  ASSERT_TRUE(added.ok()) << added.ToString();
  const ShapeDispatchTable::Entry* entry = table.Route({1, 64});
  ASSERT_NE(entry, nullptr);

  CompilerEngine reference{CompileOptions(AmpereA100())};
  StatusOr<ShapeCompileResult> expected =
      reference.CompileModelForShape(ModelKind::kBert, {1, 64});
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  const CompiledModel& want = expected->compiled;
  ASSERT_EQ(entry->sub_to_unique, want.sub_to_unique);
  for (size_t i = 0; i < want.sub_to_unique.size(); ++i) {
    EXPECT_EQ(
        ProgramFingerprint(entry->result.compiled.unique_subprograms[entry->sub_to_unique[i]]),
        ProgramFingerprint(want.unique_subprograms[want.sub_to_unique[i]]))
        << "subprogram " << i;
  }
}

// ---- sf-stats: bucket series ----------------------------------------------

TEST(ShapeBucketStatsTest, ReportDirGrowsDiffableBucketSeries) {
  const std::string dir = UniqueTestDir("stats");
  CompileReport report;
  report.request_id = "q1";
  report.model = "bert";
  report.outcome = "cache_hit";
  report.shape = "b1s100";
  report.bucket = "b1s128";
  report.bucket_hit = true;
  report.transfer_seeded = 3;
  {
    std::ofstream out(dir + "/q1.report.json");
    out << report.ToJson() << "\n";
  }
  StatusOr<RunStats> run = LoadReportDirStats(dir);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // A hit is a miss going away: no hits series, which --diff would read as
  // a regression when a warm run hits.
  EXPECT_EQ(run->series.count("bert/q1/bucket/hits"), 0u);
  EXPECT_EQ(run->series.at("bert/q1/bucket/misses"), 0.0);
  EXPECT_EQ(run->series.at("bert/q1/bucket/transfer_seeded"), 3.0);
  // Routing counters are deterministic, so --diff must compare them...
  EXPECT_FALSE(IsWallClockKey("bert/q1/bucket/misses"));
  // ...while the request's wall time is wall-clock and excluded.
  EXPECT_TRUE(IsWallClockKey("bert/q1/wall/compile_ms"));
  const std::string summary = RenderSummary(*run, /*top_n=*/3);
  EXPECT_NE(summary.find("shape buckets: 1 bucketed report(s), 1 bucket hit(s)"),
            std::string::npos)
      << summary;
}

// ---- Differential suite: dispatch vs exact compile ------------------------

// Unique subprograms of `m` by structural hash, as (index, graph) pairs.
std::vector<size_t> UniqueSubprogramIndices(const BucketedModel& m) {
  std::set<std::uint64_t> seen;
  std::vector<size_t> out;
  for (size_t i = 0; i < m.model.subprograms.size(); ++i) {
    if (seen.insert(m.model.subprograms[i].graph.StructuralHash()).second) {
      out.push_back(i);
    }
  }
  return out;
}

TEST(ShapeDispatchDifferentialTest, DispatchMatchesExactCompileOnEveryZooModel) {
  CompilerEngine engine{CompileOptions(AmpereA100())};

  for (ModelKind kind : AllModelKinds()) {
    // Three shapes per bucket. The sequence lengths are deliberately tiny:
    // padding 3 -> 4 runs the exact same embed/slice/mask-fill code paths as
    // 20 -> 32, and Llama2's 4096x11008 matmuls on the interpreter price
    // every extra token. ViT's `seq` is the image side, which needs >= 16
    // for a patch grid.
    const bool vit = kind == ModelKind::kViT;
    const std::vector<std::int64_t> seqs =
        vit ? std::vector<std::int64_t>{20, 24, 32} : std::vector<std::int64_t>{2, 3, 4};
    ShapeDispatchTable table(BucketingPolicy::PowersOfTwo());
    CompilerEngine exact_compiler{CompileOptions(AmpereA100())};
    for (std::int64_t seq : seqs) {
      const ShapeKey shape{1, seq};
      if (table.Route(shape) == nullptr) {
        StatusOr<ShapeCompileResult> compiled = engine.CompileModelForShape(kind, shape);
        ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
        ASSERT_TRUE(table.Add(std::move(compiled).value()).ok());
      }
      const ShapeDispatchTable::Entry* entry = table.Route(shape);
      ASSERT_NE(entry, nullptr);
      const BucketedModel exact = BuildModelBucketed(kind, shape, BucketingPolicy::Identity());
      const bool at_bucket_boundary = exact.bucket_key == entry->result.bucketed.bucket_key;
      for (size_t i : UniqueSubprogramIndices(exact)) {
        const Graph& g = exact.model.subprograms[i].graph;
        const TensorEnv inputs = MakeGraphInputs(g, /*seed=*/static_cast<std::uint64_t>(seq) *
                                                                 131 +
                                                             i);
        // The op-by-op reference executor is the slowest path in the repo;
        // on Llama2 it would dominate the suite, and scheduled-vs-reference
        // parity is already pinned by differential_test. The direct exact
        // compile below is the ground truth dispatch is checked against.
        const bool check_reference = kind != ModelKind::kLlama2;
        TensorEnv reference = inputs;
        if (check_reference) {
          ASSERT_TRUE(RunReference(g, &reference).ok());
        }

        // The direct compile at the exact shape: the ground truth dispatch
        // is checked against.
        StatusOr<CompiledSubprogram> direct = exact_compiler.Compile(g);
        ASSERT_TRUE(direct.ok()) << direct.status().ToString();
        TensorEnv direct_out;
        ASSERT_TRUE(RunScheduledProgram(direct->program, g, inputs, &direct_out).ok());

        TensorEnv dispatched;
        const Status st = RunBucketedSubprogram(*entry, i, exact, inputs, &dispatched);
        ASSERT_TRUE(st.ok()) << ModelKindName(kind) << "/" << g.name() << " seq=" << seq << ": "
                             << st.ToString();
        for (TensorId out : g.OutputIds()) {
          const size_t id = static_cast<size_t>(out);
          const std::string where =
              std::string(ModelKindName(kind)) + "/" + g.name() + " seq=" + std::to_string(seq);
          EXPECT_LT(MaxRelDiff(dispatched[id], direct_out[id]), 1e-2f) << where;
          if (check_reference) {
            EXPECT_LT(MaxRelDiff(dispatched[id], reference[id]), 1e-2f) << where;
          }
          if (at_bucket_boundary) {
            // At the bucket extent the padding is a no-op and the programs
            // are structurally identical: dispatch must be bit-exact.
            EXPECT_EQ(MaxAbsDiff(dispatched[id], direct_out[id]), 0.0f) << where;
          }
        }
      }
    }
  }
}

TEST(ShapeDispatchJitTest, JitDispatchMatchesInterpreterDispatch) {
  CompilerEngine engine{CompileOptions(AmpereA100())};
  StatusOr<ShapeCompileResult> compiled = engine.CompileModelForShape(ModelKind::kBert, {1, 20});
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ShapeDispatchTable table(BucketingPolicy::PowersOfTwo());
  ASSERT_TRUE(table.Add(std::move(compiled).value()).ok());
  const ShapeDispatchTable::Entry* entry = table.Route({1, 20});
  ASSERT_NE(entry, nullptr);

  JitExecutorOptions jit_options;
  jit_options.cache.dir = UniqueTestDir("jit");
  JitExecutor jit(jit_options);
  BucketRunOptions jit_run;
  jit_run.backend = ExecBackend::kJit;
  jit_run.jit = &jit;

  const BucketedModel exact =
      BuildModelBucketed(ModelKind::kBert, {1, 20}, BucketingPolicy::Identity());
  for (size_t i : UniqueSubprogramIndices(exact)) {
    const Graph& g = exact.model.subprograms[i].graph;
    const TensorEnv inputs = MakeGraphInputs(g, /*seed=*/41 + i);
    TensorEnv interpreted;
    ASSERT_TRUE(RunBucketedSubprogram(*entry, i, exact, inputs, &interpreted).ok());
    TensorEnv jitted;
    const Status st = RunBucketedSubprogram(*entry, i, exact, inputs, &jitted, jit_run);
    ASSERT_TRUE(st.ok()) << g.name() << ": " << st.ToString();
    for (TensorId out : g.OutputIds()) {
      const size_t id = static_cast<size_t>(out);
      EXPECT_LT(MaxRelDiff(jitted[id], interpreted[id]), 1e-2f) << g.name();
    }
  }
}

// The JIT backend runs only through a caller-provided executor: asking for
// it without one is a caller error, reported before any work is done.
TEST(ShapeDispatchJitTest, JitBackendWithoutExecutorIsInvalidArgument) {
  CompilerEngine engine{CompileOptions(AmpereA100())};
  StatusOr<ShapeCompileResult> compiled = engine.CompileModelForShape(ModelKind::kBert, {1, 3});
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ShapeDispatchTable table(BucketingPolicy::PowersOfTwo());
  ASSERT_TRUE(table.Add(std::move(compiled).value()).ok());
  const ShapeDispatchTable::Entry* entry = table.Route({1, 3});
  ASSERT_NE(entry, nullptr);

  const BucketedModel exact =
      BuildModelBucketed(ModelKind::kBert, {1, 3}, BucketingPolicy::Identity());
  const TensorEnv inputs = MakeGraphInputs(exact.model.subprograms[0].graph, /*seed=*/7);
  TensorEnv outputs;
  const Status st = RunBucketedSubprogram(*entry, 0, exact, inputs, &outputs,
                                          BucketRunOptions{ExecBackend::kJit, nullptr});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_TRUE(outputs.empty());
}

}  // namespace
}  // namespace spacefusion
