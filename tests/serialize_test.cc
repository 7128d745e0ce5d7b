// The persistent-program serialization battery. The warm-start contract of
// the persistent program cache rests on two properties proved here:
// serialization is canonical (decode + re-encode reproduces the bytes
// exactly, for every model the paper compiles) and deserialization is
// total over hostile bytes (any truncation, bit flip, or mutation yields a
// Status, never a crash, and never silently changes a compile result — the
// checksum and validators catch it first).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/core/program_store.h"
#include "src/graph/models.h"
#include "src/support/binary_io.h"
#include "src/support/file_util.h"

namespace spacefusion {
namespace {

CompiledModel CompileFor(ModelKind kind) {
  CompilerEngine engine(EngineOptions{});
  ModelGraph model = BuildModel(GetModelConfig(kind, /*batch=*/1, /*seq=*/128));
  StatusOr<CompiledModel> compiled = engine.CompileModel(model);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  return std::move(compiled).value();
}

std::string SubprogramBytes(const CompiledSubprogram& sub) {
  ByteWriter w;
  SerializeCompiledSubprogram(sub, &w);
  return w.Take();
}

bool ReportsBitIdentical(const ExecutionReport& a, const ExecutionReport& b) {
  return a.time_us == b.time_us && a.kernel_count == b.kernel_count && a.flops == b.flops &&
         a.dram_bytes == b.dram_bytes && a.l1_accesses == b.l1_accesses &&
         a.l1_misses == b.l1_misses && a.l2_accesses == b.l2_accesses &&
         a.l2_misses == b.l2_misses;
}

// A PersistedProgram with real key context around the model's first
// subprogram, the shape the engine writes to disk.
PersistedProgram MakePersisted(ModelKind kind) {
  CompiledModel compiled = CompileFor(kind);
  ModelGraph model = BuildModel(GetModelConfig(kind, 1, 128));
  PersistedProgram persisted;
  persisted.arch = "Ampere";
  persisted.options_digest = CompileOptionsDigest(CompileOptions{});
  persisted.fingerprint = model.subprograms.front().graph.StructuralHash();
  persisted.canonical = model.subprograms.front().graph.CanonicalForm();
  persisted.compiled = compiled.unique_subprograms.front();
  persisted.compiled.request_id.clear();  // not persisted (see program_store.h)
  return persisted;
}

// The .sfpc store persists subprograms, so every unique subprogram of every
// model must round-trip through the subprogram codec.
TEST(SerializeTest, EveryModelRoundTripsByteIdentical) {
  for (ModelKind kind : AllModelKinds()) {
    CompiledModel model = CompileFor(kind);
    ASSERT_FALSE(model.unique_subprograms.empty()) << ModelKindName(kind);
    for (const CompiledSubprogram& original : model.unique_subprograms) {
      const std::string bytes = SubprogramBytes(original);

      ByteReader r(bytes);
      CompiledSubprogram reloaded;
      Status status = DeserializeCompiledSubprogram(&r, &reloaded);
      ASSERT_TRUE(status.ok()) << ModelKindName(kind) << ": " << status.ToString();
      EXPECT_EQ(r.remaining(), 0u);

      // Canonical: re-serialization reproduces the exact bytes (request_id
      // is not part of the format, so the original's id doesn't perturb it).
      EXPECT_EQ(SubprogramBytes(reloaded), bytes) << ModelKindName(kind);

      // Bit-identical modeled results, the warm-start contract.
      EXPECT_TRUE(ReportsBitIdentical(reloaded.estimate, original.estimate));
      EXPECT_EQ(reloaded.tuning.simulated_tuning_seconds,
                original.tuning.simulated_tuning_seconds);
      EXPECT_EQ(reloaded.tuning.best_time_us, original.tuning.best_time_us);
      EXPECT_EQ(reloaded.compile_time.tuning_s, original.compile_time.tuning_s);
      EXPECT_EQ(reloaded.kernels.size(), original.kernels.size());
      EXPECT_TRUE(reloaded.request_id.empty());  // deliberately dropped
    }
  }
}

TEST(SerializeTest, PersistedProgramRoundTripsByteIdentical) {
  const PersistedProgram persisted = MakePersisted(ModelKind::kBert);
  const std::string blob = EncodePersistedProgram(persisted);

  PersistedProgram decoded;
  Status status = DecodePersistedProgram(blob, &decoded);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(decoded.arch, persisted.arch);
  EXPECT_EQ(decoded.options_digest, persisted.options_digest);
  EXPECT_EQ(decoded.fingerprint, persisted.fingerprint);
  EXPECT_EQ(decoded.canonical, persisted.canonical);
  EXPECT_TRUE(ReportsBitIdentical(decoded.compiled.estimate, persisted.compiled.estimate));
  EXPECT_EQ(EncodePersistedProgram(decoded), blob);
}

TEST(SerializeTest, EveryTruncationIsRejectedNotCrash) {
  const std::string blob = EncodePersistedProgram(MakePersisted(ModelKind::kBert));
  ASSERT_GT(blob.size(), 16u);
  PersistedProgram decoded;
  // Every header truncation, then sampled payload truncations.
  for (size_t len = 0; len < 32; ++len) {
    EXPECT_FALSE(DecodePersistedProgram(blob.substr(0, len), &decoded).ok()) << len;
  }
  for (size_t len = 32; len < blob.size(); len += 97) {
    EXPECT_FALSE(DecodePersistedProgram(blob.substr(0, len), &decoded).ok()) << len;
  }
  EXPECT_FALSE(DecodePersistedProgram(blob.substr(0, blob.size() - 1), &decoded).ok());
  // Trailing garbage is also rejected, not ignored.
  EXPECT_FALSE(DecodePersistedProgram(blob + "x", &decoded).ok());
}

TEST(SerializeTest, EveryFlippedByteIsRejected) {
  const std::string blob = EncodePersistedProgram(MakePersisted(ModelKind::kBert));
  PersistedProgram decoded;
  // The 16-byte header exhaustively, the payload sampled: a flip lands in
  // the magic, the version, the checksum, or the checksummed payload — all
  // four must reject.
  for (size_t i = 0; i < blob.size(); i = i < 16 ? i + 1 : i + 131) {
    std::string mutated = blob;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x20);
    EXPECT_FALSE(DecodePersistedProgram(mutated, &decoded).ok()) << "offset " << i;
  }
}

TEST(SerializeTest, FutureSchemaVersionIsUnsupported) {
  std::string blob = EncodePersistedProgram(MakePersisted(ModelKind::kBert));
  // Bytes 4..7 are the little-endian schema version.
  blob[4] = static_cast<char>(kProgramBlobSchemaVersion + 1);
  PersistedProgram decoded;
  Status status = DecodePersistedProgram(blob, &decoded);
  EXPECT_EQ(status.code(), StatusCode::kUnsupported) << status.ToString();

  blob[4] = 0;  // version 0 never existed: corrupt, not "old"
  EXPECT_EQ(DecodePersistedProgram(blob, &decoded).code(), StatusCode::kDataLoss);
}

TEST(SerializeTest, CacheDistinguishesMissStaleAndCorrupt) {
  const std::string dir = testing::TempDir() + "/sf_serialize_cache";
  std::filesystem::remove_all(dir);
  PersistentProgramCache cache(dir);
  const PersistedProgram persisted = MakePersisted(ModelKind::kBert);
  const std::uint64_t fp = persisted.fingerprint;
  const std::uint64_t digest = persisted.options_digest;

  CompiledSubprogram out;
  std::string detail;
  // Nothing stored yet.
  EXPECT_EQ(cache.Load(fp, digest, "Ampere", persisted.canonical, &out),
            PersistentProgramCache::LoadResult::kMiss);

  ASSERT_TRUE(cache.Store(fp, digest, "Ampere", persisted.canonical, persisted.compiled).ok());
  EXPECT_EQ(cache.Load(fp, digest, "Ampere", persisted.canonical, &out),
            PersistentProgramCache::LoadResult::kHit);
  EXPECT_TRUE(ReportsBitIdentical(out.estimate, persisted.compiled.estimate));

  // Same file, different requesting context: stale, with a reason.
  EXPECT_EQ(cache.Load(fp, digest, "Volta", persisted.canonical, &out, &detail),
            PersistentProgramCache::LoadResult::kStale);
  EXPECT_FALSE(detail.empty());
  EXPECT_EQ(cache.Load(fp, digest, "Ampere", persisted.canonical + "!", &out),
            PersistentProgramCache::LoadResult::kStale);

  // Garbage at the entry path: corrupt, never a crash.
  ASSERT_TRUE(AtomicWriteFile(cache.EntryPath(fp, digest), "not a program blob").ok());
  EXPECT_EQ(cache.Load(fp, digest, "Ampere", persisted.canonical, &out, &detail),
            PersistentProgramCache::LoadResult::kCorrupt);
  EXPECT_FALSE(detail.empty());

  // Empty file (e.g. a crashed non-atomic writer would leave one): corrupt.
  ASSERT_TRUE(AtomicWriteFile(cache.EntryPath(fp, digest), "").ok());
  EXPECT_EQ(cache.Load(fp, digest, "Ampere", persisted.canonical, &out),
            PersistentProgramCache::LoadResult::kCorrupt);
}

// Deterministic xorshift64 so the fuzz corpus is identical on every run.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }

 private:
  std::uint64_t state_;
};

TEST(SerializeTest, FuzzedBlobsNeverCrashTheDecoder) {
  const std::string blob = EncodePersistedProgram(MakePersisted(ModelKind::kViT));
  Rng rng(0x5eedf00dULL);
  for (int round = 0; round < 300; ++round) {
    std::string mutated = blob;
    // 1-8 byte mutations, sometimes followed by a truncation. A "mutation"
    // can write the byte already there, so an accepted decode is legal only
    // for a blob that is still byte-identical to the original.
    const int flips = 1 + static_cast<int>(rng.Next() % 8);
    for (int f = 0; f < flips; ++f) {
      mutated[rng.Next() % mutated.size()] = static_cast<char>(rng.Next());
    }
    if (rng.Next() % 4 == 0) {
      mutated.resize(rng.Next() % (mutated.size() + 1));
    }
    PersistedProgram decoded;
    if (DecodePersistedProgram(mutated, &decoded).ok()) {
      EXPECT_EQ(mutated, blob);
    }
  }
}

TEST(SerializeTest, FuzzedPayloadsNeverCrashTheValidators) {
  // The checksum shields DecodePersistedProgram from most mutations; the
  // structural validators behind it must hold on their own. Feed mutated
  // *payload* bytes of every unique subprogram straight to
  // DeserializeCompiledSubprogram, the decoder the .sfpc store runs.
  CompiledModel model = CompileFor(ModelKind::kT5);
  Rng rng(0xf022edULL);
  for (const CompiledSubprogram& sub : model.unique_subprograms) {
    const std::string bytes = SubprogramBytes(sub);
    for (int round = 0; round < 300; ++round) {
      std::string mutated = bytes;
      const int flips = 1 + static_cast<int>(rng.Next() % 6);
      for (int f = 0; f < flips; ++f) {
        mutated[rng.Next() % mutated.size()] = static_cast<char>(rng.Next());
      }
      if (rng.Next() % 3 == 0) {
        mutated.resize(rng.Next() % (mutated.size() + 1));
      }
      ByteReader r(mutated);
      CompiledSubprogram reloaded;
      // Either outcome is legal (a flip inside a double payload decodes
      // fine); crashing or hanging is not — and an accepted decode must
      // re-serialize canonically.
      if (DeserializeCompiledSubprogram(&r, &reloaded).ok() && r.remaining() == 0) {
        EXPECT_EQ(SubprogramBytes(reloaded), mutated);
      }
    }
  }
}

}  // namespace
}  // namespace spacefusion
