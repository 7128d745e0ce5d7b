#include "src/core/program_store.h"

#include <cstdio>

#include "src/schedule/serialize.h"
#include "src/support/file_util.h"
#include "src/support/string_util.h"

namespace spacefusion {

void SerializeCompiledSubprogram(const CompiledSubprogram& sub, ByteWriter* w) {
  SerializeScheduledProgram(sub.program, w);
  w->U64(sub.kernels.size());
  for (const KernelSpec& kernel : sub.kernels) {
    SerializeKernelSpec(kernel, w);
  }
  SerializeExecutionReport(sub.estimate, w);
  w->F64(sub.compile_time.slicing_ms);
  w->F64(sub.compile_time.enum_cfg_ms);
  w->F64(sub.compile_time.tuning_s);
  w->I64(sub.tuning.configs_enumerated);
  w->I32(sub.tuning.configs_screened);
  w->I32(sub.tuning.configs_tried);
  w->I32(sub.tuning.configs_early_quit);
  w->F64(sub.tuning.best_time_us);
  w->F64(sub.tuning.simulated_tuning_seconds);
  w->I32(sub.candidate_programs);
  // request_id and the transfer-store fields (tuned_kernels,
  // tuning.{configs_transfer_seeded,transfer_signature,admitted_configs})
  // intentionally omitted (see header): they describe one past process's
  // tuning run, and omitting them keeps decode + re-encode byte-identical.
}

Status DeserializeCompiledSubprogram(ByteReader* r, CompiledSubprogram* sub) {
  CompiledSubprogram out;
  SF_RETURN_IF_ERROR(DeserializeScheduledProgram(r, &out.program));
  std::uint64_t num_kernels = 0;
  SF_RETURN_IF_ERROR(r->Count(&num_kernels, 1));
  out.kernels.resize(num_kernels);
  for (std::uint64_t i = 0; i < num_kernels; ++i) {
    SF_RETURN_IF_ERROR(DeserializeKernelSpec(r, &out.kernels[i]));
  }
  SF_RETURN_IF_ERROR(DeserializeExecutionReport(r, &out.estimate));
  SF_RETURN_IF_ERROR(r->F64(&out.compile_time.slicing_ms));
  SF_RETURN_IF_ERROR(r->F64(&out.compile_time.enum_cfg_ms));
  SF_RETURN_IF_ERROR(r->F64(&out.compile_time.tuning_s));
  SF_RETURN_IF_ERROR(r->I64(&out.tuning.configs_enumerated));
  SF_RETURN_IF_ERROR(r->I32(&out.tuning.configs_screened));
  SF_RETURN_IF_ERROR(r->I32(&out.tuning.configs_tried));
  SF_RETURN_IF_ERROR(r->I32(&out.tuning.configs_early_quit));
  SF_RETURN_IF_ERROR(r->F64(&out.tuning.best_time_us));
  SF_RETURN_IF_ERROR(r->F64(&out.tuning.simulated_tuning_seconds));
  SF_RETURN_IF_ERROR(r->I32(&out.candidate_programs));
  if (out.candidate_programs < 0) {
    return DataLoss(StrCat("negative candidate_programs ", out.candidate_programs));
  }
  *sub = std::move(out);
  return Status::Ok();
}

std::string EncodePersistedProgram(const PersistedProgram& program) {
  ByteWriter payload;
  payload.Str(program.arch);
  payload.U64(program.options_digest);
  payload.U64(program.fingerprint);
  payload.Str(program.canonical);
  payload.Str(program.bucket);
  SerializeCompiledSubprogram(program.compiled, &payload);

  ByteWriter blob;
  for (char c : kProgramBlobMagic) {
    blob.U8(static_cast<std::uint8_t>(c));
  }
  blob.U32(kProgramBlobSchemaVersion);
  blob.U64(Fnv1a64(payload.bytes()));
  std::string out = blob.Take();
  out.append(payload.bytes());
  return out;
}

Status DecodePersistedProgram(const std::string& bytes, PersistedProgram* program) {
  ByteReader r(bytes);
  for (char expected : kProgramBlobMagic) {
    std::uint8_t byte = 0;
    SF_RETURN_IF_ERROR(r.U8(&byte));
    if (byte != static_cast<std::uint8_t>(expected)) {
      return DataLoss("bad magic: not a SpaceFusion program blob");
    }
  }
  std::uint32_t version = 0;
  SF_RETURN_IF_ERROR(r.U32(&version));
  if (version > kProgramBlobSchemaVersion) {
    return Unsupported(StrCat("program blob schema version ", version,
                              " is newer than supported version ", kProgramBlobSchemaVersion));
  }
  if (version == 0) {
    return DataLoss("invalid program blob schema version 0");
  }
  std::uint64_t checksum = 0;
  SF_RETURN_IF_ERROR(r.U64(&checksum));
  // Integrity before structure: nothing past this header is parsed until the
  // whole payload checks out, so one flipped bit anywhere is caught here.
  const std::uint64_t actual = Fnv1a64(bytes.data() + r.pos(), bytes.size() - r.pos());
  if (actual != checksum) {
    return DataLoss(StrCat("payload checksum mismatch: header says ", checksum, ", payload is ",
                           actual));
  }

  PersistedProgram out;
  SF_RETURN_IF_ERROR(r.Str(&out.arch));
  SF_RETURN_IF_ERROR(r.U64(&out.options_digest));
  SF_RETURN_IF_ERROR(r.U64(&out.fingerprint));
  SF_RETURN_IF_ERROR(r.Str(&out.canonical));
  if (version >= 2) {
    // v1 blobs predate shape buckets; their bucket reads back empty.
    SF_RETURN_IF_ERROR(r.Str(&out.bucket));
  }
  SF_RETURN_IF_ERROR(DeserializeCompiledSubprogram(&r, &out.compiled));
  if (!r.AtEnd()) {
    return DataLoss(StrCat(r.remaining(), " trailing byte(s) after program payload"));
  }
  *program = std::move(out);
  return Status::Ok();
}

std::string PersistentProgramCache::EntryPath(std::uint64_t fingerprint,
                                              std::uint64_t digest) const {
  char name[48];
  std::snprintf(name, sizeof(name), "%016llx-%016llx.sfpc",
                static_cast<unsigned long long>(fingerprint),
                static_cast<unsigned long long>(digest));
  return StrCat(dir_, "/", name);
}

PersistentProgramCache::LoadResult PersistentProgramCache::Load(
    std::uint64_t fingerprint, std::uint64_t digest, const std::string& arch,
    const std::string& canonical, CompiledSubprogram* out, std::string* detail,
    const std::string& bucket) const {
  StatusOr<std::string> bytes = ReadFileToString(EntryPath(fingerprint, digest));
  if (!bytes.ok()) {
    if (detail != nullptr) {
      *detail = bytes.status().ToString();
    }
    return LoadResult::kMiss;
  }
  PersistedProgram program;
  Status decoded = DecodePersistedProgram(*bytes, &program);
  if (!decoded.ok()) {
    if (detail != nullptr) {
      *detail = decoded.ToString();
    }
    return LoadResult::kCorrupt;
  }
  // The file name already encodes (fingerprint, digest); re-checking them —
  // plus the arch name and the full canonical graph form — catches renamed
  // files, digest-function drift, and fingerprint aliasing.
  if (program.fingerprint != fingerprint || program.options_digest != digest ||
      program.arch != arch || program.canonical != canonical || program.bucket != bucket) {
    if (detail != nullptr) {
      *detail = StrCat("stale entry: written for arch ", program.arch, ", digest ",
                       program.options_digest, ", fingerprint ", program.fingerprint,
                       ", bucket \"", program.bucket, "\"");
    }
    return LoadResult::kStale;
  }
  *out = std::move(program.compiled);
  return LoadResult::kHit;
}

Status PersistentProgramCache::Store(std::uint64_t fingerprint, std::uint64_t digest,
                                     const std::string& arch, const std::string& canonical,
                                     const CompiledSubprogram& compiled,
                                     const std::string& bucket) const {
  PersistedProgram program;
  program.arch = arch;
  program.options_digest = digest;
  program.fingerprint = fingerprint;
  program.canonical = canonical;
  program.bucket = bucket;
  program.compiled = compiled;
  return AtomicWriteFile(EntryPath(fingerprint, digest), EncodePersistedProgram(program));
}

}  // namespace spacefusion
