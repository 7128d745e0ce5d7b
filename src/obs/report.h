// Structured per-compile reports (the serving-grade observability record).
//
// Every CompilerEngine request — cold compile, cache hit, or failure —
// produces one CompileReport: request id, graph fingerprint and options
// digest (the engine-cache key), per-pass wall/CPU timings, cache outcome,
// tuning funnel (enumerated → screened → admitted), verifier diagnostics,
// and a memory-plan summary. Reports serialize to JSON and round-trip
// through FromJson, so sf-stats can aggregate them across runs and CI can
// diff them against a checked-in baseline.
//
// Emission is pluggable: the engine forwards each finished report to the
// ReportSink in its options — tests install capturing sinks, and
// `sf-compile --report-dir` a DirectoryReportSink writing
// <dir>/<request_id>.report.json. CompiledModel carries the merged report
// of its compile so callers need no sink to inspect one run.
#ifndef SPACEFUSION_SRC_OBS_REPORT_H_
#define SPACEFUSION_SRC_OBS_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/support/status.h"

namespace spacefusion {

// One pass execution inside a compile: wall-clock and process CPU time.
// CPU < wall signals the pass blocked (I/O, lock contention); CPU > wall
// signals other threads of the process were busy (concurrent requests).
struct PassReportEntry {
  std::string pass;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
};

// One rendered verifier diagnostic ("SFV0103 [error] graph(m): ...").
// Reports keep the rendered line plus the stable code so sf-stats can
// bucket failures without re-parsing free text.
struct ReportDiagnostic {
  std::string code;
  std::string severity;  // "error" | "warning"
  std::string message;   // full rendered line
};

struct CompileReport {
  // Schema version; bump when fields change incompatibly.
  static constexpr int kSchemaVersion = 1;

  std::string request_id;            // "req-000042", unique per engine request
  std::string model;                 // caller-supplied model/graph name ("" if unnamed)
  std::uint64_t graph_fingerprint = 0;   // Graph::StructuralHash
  std::uint64_t options_digest = 0;      // CompileOptionsDigest
  // "cold" (pipeline ran), "cache_hit" (structural cache),
  // "persistent_hit" (persistent cache), "error".
  std::string outcome;
  std::string status_message;        // "" on success, rendered Status otherwise
  bool cache_collision = false;      // canonical-form confirmation mismatched

  double wall_ms = 0.0;              // end-to-end request wall time
  std::vector<PassReportEntry> passes;

  // Tuning funnel: configs enumerated by the search space, scored by the
  // analytical screen, and admitted to full-fidelity evaluation.
  std::int64_t configs_enumerated = 0;
  std::int64_t configs_screened = 0;
  std::int64_t configs_admitted = 0;
  double tuning_seconds = 0.0;       // emulated measurement wall-clock

  int verifier_errors = 0;
  int verifier_warnings = 0;
  std::vector<ReportDiagnostic> diagnostics;

  // Memory-plan summary of the winning program (maxima across kernels).
  int kernels = 0;
  std::int64_t smem_bytes = 0;
  std::int64_t reg_bytes = 0;
  double modeled_time_us = 0.0;      // simulator estimate of one execution

  // Dynamic shapes. For a shape-routed request (CompileModelForShape):
  // `shape` is the request's ShapeKey label, `bucket` the bucket it was
  // routed to, bucket_hit whether the whole request was served without a
  // tuner invocation, and transfer_seeded how many admitted configs the
  // tuner measured first on a neighboring bucket's recommendation. All
  // empty/zero for shape-agnostic compiles, and absent fields default when
  // parsing pre-bucket documents.
  std::string shape;
  std::string bucket;
  bool bucket_hit = false;
  std::int64_t transfer_seeded = 0;

  std::string ToJson() const;
  // Inverse of ToJson; rejects documents whose schema_version is newer than
  // this build understands and ignores keys it does not know (such as the
  // "jit" block and the measured fused/unfused ratio older builds wrote).
  static StatusOr<CompileReport> FromJson(const std::string& json);
  // The "verifier" object of ToJson: {"errors":N,"warnings":N,"diagnostics":[...]}.
  std::string VerifierJson() const;

  // Folds another request's report into this one, as CompiledModel's report
  // folds its unique subprograms: passes summed by name, tuning funnel,
  // verifier, kernel and transfer counts added, memory maxima kept,
  // diagnostics appended, a cache collision kept. The identity fields
  // (request id, model, fingerprint, digest, outcome, status, wall time,
  // shape, bucket, modeled time) stay the caller's.
  void Merge(const CompileReport& other);

  // Wall-clock of one pass by name (0 when absent).
  double PassWallMs(const std::string& pass_name) const;
};

// Where finished reports go. Emit must be thread-safe: concurrent engine
// requests finish concurrently.
class ReportSink {
 public:
  virtual ~ReportSink() = default;
  virtual void Emit(const CompileReport& report) = 0;
};

// Writes <dir>/<request_id>.report.json per report (directory created on
// first emit). Write failures log a warning and drop the report — the
// compile itself must never fail because a report could not be persisted.
class DirectoryReportSink : public ReportSink {
 public:
  explicit DirectoryReportSink(std::string dir) : dir_(std::move(dir)) {}
  void Emit(const CompileReport& report) override;

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
};

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_OBS_REPORT_H_
