// The persistent program cache: compiled subprograms as versioned,
// checksummed blobs on disk, so a later process (e.g. a second sf-compile
// run) warms its in-memory program cache from EngineOptions::cache_dir
// instead of re-tuning.
//
// Blob anatomy (all little-endian, see src/support/binary_io.h):
//
//   "SFPC" | u32 schema version | u64 FNV-1a of payload | payload
//
// where the payload carries the full cache-key context — architecture name,
// options digest, graph fingerprint, canonical graph form — followed by the
// CompiledSubprogram itself. The checksum is verified before the payload is
// parsed, the schema version before that, and the key context is compared
// against the requesting compile after parsing: a mismatch marks the entry
// *stale* (options or code drifted; silently recompile cold), distinct from
// *corrupt* (bit rot, truncation, partial write).
//
// CompiledSubprogram::request_id is deliberately not persisted: it names the
// request that produced the result for one caller, is rewritten on every
// cache hit anyway, and omitting it keeps serialization canonical
// (decode + re-encode reproduces the blob byte for byte).
#ifndef SPACEFUSION_SRC_CORE_PROGRAM_STORE_H_
#define SPACEFUSION_SRC_CORE_PROGRAM_STORE_H_

#include <cstdint>
#include <string>

#include "src/pass/pass.h"
#include "src/support/binary_io.h"

namespace spacefusion {

void SerializeCompiledSubprogram(const CompiledSubprogram& sub, ByteWriter* w);
Status DeserializeCompiledSubprogram(ByteReader* r, CompiledSubprogram* sub);

inline constexpr char kProgramBlobMagic[4] = {'S', 'F', 'P', 'C'};
// v2 adds the shape-bucket tag to the payload key context. v1 blobs still
// decode (bucket reads back empty), so a pre-bucket cache keeps serving
// shape-agnostic compiles and goes stale — a silent cold fallback — only
// when a bucketed compile asks for it.
inline constexpr std::uint32_t kProgramBlobSchemaVersion = 2;

// One cache entry with its full key context.
struct PersistedProgram {
  std::string arch;                  // GpuArch::name of the compiling options
  std::uint64_t options_digest = 0;  // CompileOptionsDigest
  std::uint64_t fingerprint = 0;     // engine fingerprint of the graph
  std::string canonical;             // Graph::CanonicalForm of the graph
  std::string bucket;                // CompileOptions::shape_bucket ("" = none)
  CompiledSubprogram compiled;
};

// Frames `program` as a magic/version/checksum blob.
std::string EncodePersistedProgram(const PersistedProgram& program);

// Inverse of EncodePersistedProgram, built for hostile bytes: returns
// kUnsupported for schema versions from the future and kDataLoss for
// everything else that is wrong (bad magic, checksum mismatch, truncation,
// invalid payload, trailing bytes). Never crashes.
Status DecodePersistedProgram(const std::string& bytes, PersistedProgram* program);

// A directory of EncodePersistedProgram blobs, one file per
// (fingerprint, options digest) pair. Writes are atomic (write-tmp-then-
// rename via AtomicWriteFile) so a crashed or concurrent writer can never
// leave a partially-written entry where a reader finds it.
class PersistentProgramCache {
 public:
  enum class LoadResult {
    kHit,      // entry found, key context matches, *out filled
    kMiss,     // no entry on disk
    kStale,    // entry decodes but was written for a different key context
    kCorrupt,  // entry fails magic/version/checksum/payload validation
  };

  explicit PersistentProgramCache(std::string dir) : dir_(std::move(dir)) {}

  const std::string& dir() const { return dir_; }

  // "<dir>/<fingerprint hex>-<digest hex>.sfpc"
  std::string EntryPath(std::uint64_t fingerprint, std::uint64_t digest) const;

  // Best-effort load; everything except kHit leaves *out untouched and, for
  // kStale/kCorrupt, puts a human-readable reason in *detail when non-null.
  // `bucket` is the requesting compile's shape bucket ("" = shape-agnostic);
  // an entry written for a different bucket is stale even if every other
  // key component matches.
  LoadResult Load(std::uint64_t fingerprint, std::uint64_t digest, const std::string& arch,
                  const std::string& canonical, CompiledSubprogram* out,
                  std::string* detail = nullptr, const std::string& bucket = "") const;

  Status Store(std::uint64_t fingerprint, std::uint64_t digest, const std::string& arch,
               const std::string& canonical, const CompiledSubprogram& compiled,
               const std::string& bucket = "") const;

 private:
  std::string dir_;
};

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_CORE_PROGRAM_STORE_H_
