// CompilerEngine: the SpaceFusion compile API (paper Fig. 9).
//
// Program pre-processing segments a model into subprograms (done by the
// model builders); each subprogram request builds a CompilationState and
// runs the BuildCompilePassList pass list through a PassManager: one fused
// SMG per subprogram, then resource-aware slicing and SMG partitioning
// until every SMG has a schedule, the auto-tuner measuring the enumerated
// configurations on the GPU simulator, and the best schedules lowered to
// kernels. The CompileTimeBreakdown derives from the pass timings.
//
// The engine owns what a single compile request must not: the cross-model
// structural program cache, the cross-bucket config-transfer store, and
// the Table 6 fusion-pattern recorder. Every method is safe to call from
// several threads at once.
//
// Program cache key anatomy: (canonical graph fingerprint, options digest).
// The fingerprint is Graph::StructuralHash (name-insensitive) by default —
// overridable per engine for tests — and the options digest covers the
// architecture plus every compile-affecting option, so A100 and V100
// programs never alias. A fingerprint hit is confirmed by comparing
// Graph::CanonicalForm against the cached entry before it is served; a
// mismatch is a counted collision and compiles fresh into the same bucket.
// The canonical form carries every tensor name, because the executors wire
// a program to the caller's tensors by name: a graph that differs from a
// cached one only in its names gets a program of its own.
//
// Configuration arrives only through EngineOptions and CompileOptions; the
// engine reads no environment variable.
#ifndef SPACEFUSION_SRC_CORE_ENGINE_H_
#define SPACEFUSION_SRC_CORE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/program_store.h"
#include "src/graph/models.h"
#include "src/graph/shape_bucket.h"
#include "src/obs/report.h"
#include "src/pass/pass.h"
#include "src/support/thread_annotations.h"

namespace spacefusion {

// Digest of every compile-affecting field of the options, including the
// architecture. Two options with equal digests produce identical programs
// for identical graphs.
std::uint64_t CompileOptionsDigest(const CompileOptions& options);

// What CompileModel returns.
struct CompiledModel {
  // One entry per *unique* subprogram (repetitions compile once), in
  // first-seen order.
  std::vector<CompiledSubprogram> unique_subprograms;
  // The unique_subprograms index of each model subprogram, in model order.
  // Repetitions are grouped by Graph::CanonicalForm, so a fingerprint
  // collision never makes two different subprograms share a program.
  std::vector<size_t> sub_to_unique;
  // Execution estimate of the whole model (repeat counts expanded).
  ExecutionReport total;
  CompileTimeBreakdown compile_time;
  int cache_hits = 0;  // repeated subprograms served from the compile cache
  // Merged observability report of this model's compile: per-pass timings
  // summed by pass name across the unique-subprogram requests, tuning
  // funnel and memory summary folded the same way. Carried here (not
  // emitted to sinks — the per-request reports already were) so callers can
  // inspect one compile without installing a ReportSink.
  CompileReport report;
};

// What CompileModelForShape returns: the bucket's compiled programs plus
// everything runtime dispatch needs to serve the exact request shape.
struct ShapeCompileResult {
  // Graphs + padding layouts at the bucket shape, exact + bucket configs.
  BucketedModel bucketed;
  // One compiled program per unique bucket subprogram. The model-level
  // report carries shape ( = the request), bucket, bucket_hit and
  // transfer_seeded.
  CompiledModel compiled;
  // True when every subprogram was served from a cache (in-memory or
  // persistent): the request ran zero tuner invocations.
  bool bucket_hit = false;
  // Admitted configs the tuner measured first because a neighboring
  // bucket's prior named them (0 on warm requests — nothing was tuned).
  std::int64_t transfer_seeded = 0;
};

struct EngineOptions {
  // Default options for Compile/CompileModel calls without per-request ones.
  CompileOptions compile;
  // Directory of the persistent program cache (empty = in-memory cache
  // only). Cold compiles are stored as checksummed blobs and a later
  // engine — typically in a later process — serves them as
  // "persistent_hit" without re-tuning; stale or corrupt entries silently
  // fall back to a cold compile (engine.cache.persistent_* metrics).
  std::string cache_dir;
  // Graph fingerprint for the program-cache key. Defaults to
  // Graph::StructuralHash; tests override it to force collisions onto the
  // canonical-form comparison path.
  std::function<std::uint64_t(const Graph&)> fingerprint_fn;
  // Race analysis run on every cold compile before it is admitted into the
  // persistent cache (src/analysis): a program with SFV06xx findings is
  // never stored (engine.cache.analysis_rejected), so a later process
  // cannot warm-serve a racy schedule. Defaults to AnalyzeCompiledProgram;
  // tests override it to force rejections.
  std::function<DiagnosticReport(const ScheduledProgram&, const Graph&)> admission_analysis;
  // Receives the CompileReport of every finished request (cold, cache hit,
  // or failed). Non-owning; must outlive the engine and be thread-safe.
  ReportSink* report_sink = nullptr;
  // Passes whose artifacts every cold compile dumps (a PassDumpRequested
  // spec, e.g. "SlicingPipeline" or "all"; empty dumps nothing), to the
  // PassManagerOptions default sink, stderr.
  std::string dump_after_pass;

  EngineOptions() = default;
  explicit EngineOptions(CompileOptions c) : compile(std::move(c)) {}
};

class CompilerEngine {
 public:
  struct CacheStats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t collisions = 0;  // fingerprint hit, canonical-form mismatch
    // Persistent-cache traffic (zero unless a cache_dir is configured).
    std::int64_t persistent_hits = 0;     // served from disk, no compile ran
    std::int64_t persistent_stale = 0;    // entry decoded but keys mismatched
    std::int64_t persistent_corrupt = 0;  // entry failed checksum/validation
    std::int64_t analysis_rejected = 0;   // race analysis refused persistence
    // Shape-bucket traffic (CompileModelForShape requests only).
    std::int64_t bucket_hits = 0;      // served with zero tuner invocations
    std::int64_t bucket_misses = 0;    // at least one subprogram tuned cold
    std::int64_t transfer_seeded = 0;  // configs seeded from a neighbor bucket
  };

  explicit CompilerEngine(EngineOptions options);
  explicit CompilerEngine(CompileOptions options);

  const CompileOptions& options() const { return options_.compile; }

  // Compiles one subprogram. Safe to call from several threads at once;
  // structurally repeated graphs (same options digest) are served from the
  // program cache.
  StatusOr<CompiledSubprogram> Compile(const Graph& graph);
  StatusOr<CompiledSubprogram> Compile(const Graph& graph, const CompileOptions& options);

  // Compiles a whole model; repeated subprograms (equal
  // Graph::CanonicalForm) are compiled once. CompiledModel::cache_hits
  // counts the intra-model repeats (the paper's compile-once statistic);
  // cross-model reuse shows up in engine.cache.*.
  StatusOr<CompiledModel> CompileModel(const ModelGraph& model);
  StatusOr<CompiledModel> CompileModel(const ModelGraph& model, const CompileOptions& options);

  // Shape-bucketed compile: builds `kind` at the bucket `policy` (default:
  // BucketingPolicy::PowersOfTwo()) assigns to `shape`, compiles one program per
  // unique bucket subprogram with the cache/persistent keys tagged by the
  // bucket, and seeds the tuner's measurement order with the admitted
  // configs of the nearest already-tuned bucket. A second shape falling into
  // an already-compiled bucket is a pure cache hit: zero tuner invocations.
  StatusOr<ShapeCompileResult> CompileModelForShape(ModelKind kind, const ShapeKey& shape);
  StatusOr<ShapeCompileResult> CompileModelForShape(ModelKind kind, const ShapeKey& shape,
                                                    const CompileOptions& options);
  StatusOr<ShapeCompileResult> CompileModelForShape(ModelKind kind, const ShapeKey& shape,
                                                    const CompileOptions& options,
                                                    const BucketingPolicy& policy);

  // Fused subgraphs with >=2 All-to-One mappings seen so far, deduplicated
  // by operator topology (Table 6's counting rule), across every request
  // this engine served.
  FusionPatternStats fusion_stats() const { return fusion_.stats(); }

  CacheStats cache_stats() const;
  // Number of cached programs (across all buckets).
  std::int64_t program_cache_size() const;

 private:
  struct CacheEntry {
    std::uint64_t digest = 0;
    std::string canonical;
    CompiledSubprogram compiled;
  };

  // Program-cache coordinates of one request.
  struct RequestKey {
    std::uint64_t fingerprint = 0;
    std::uint64_t digest = 0;
    std::uint64_t cache_key = 0;  // cache_ key mixing fingerprint and digest
    std::string canonical;        // Graph::CanonicalForm
  };

  std::uint64_t Fingerprint(const Graph& graph) const;
  // Stores `compiled` in the program cache unless an entry with the same
  // (digest, canonical form) is already there.
  void InsertIfAbsent(const RequestKey& key, const CompiledSubprogram& compiled)
      SF_REQUIRES(cache_mu_);
  // One engine request: Lookup, CompileCold on a miss, then one finish
  // tail for every outcome that writes the request's CompileReport into
  // *report and emits it to the report sink.
  StatusOr<CompiledSubprogram> CompileWithReport(const Graph& graph,
                                                 const CompileOptions& options,
                                                 const std::string& model_name,
                                                 CompileReport* report);
  // Serves a request from the in-memory program cache, then from the
  // persistent one: fills *out and returns its CompileReport outcome
  // ("cache_hit" or "persistent_hit"), or nullptr on a miss.
  const char* Lookup(const CompileOptions& options, const RequestKey& key, CompileReport* report,
                     CompiledSubprogram* out);
  // Runs the pass list, then persists the result (when race analysis admits
  // it) and stores it in the program cache.
  StatusOr<CompiledSubprogram> CompileCold(const Graph& graph, const CompileOptions& options,
                                           const RequestKey& key, CompileReport* report);
  StatusOr<CompiledSubprogram> RunPassList(const Graph& graph, const CompileOptions& options,
                                           CompileReport* report);
  // Process-wide deterministic request ids: "req-000001", "req-000002", ...
  static std::string NextRequestId();

  EngineOptions options_;
  std::uint64_t default_digest_ = 0;
  // Null unless options_.cache_dir names a directory.
  std::unique_ptr<PersistentProgramCache> persistent_;

  mutable Mutex cache_mu_;
  std::map<std::uint64_t, std::vector<CacheEntry>> cache_ SF_GUARDED_BY(cache_mu_);
  CacheStats stats_ SF_GUARDED_BY(cache_mu_);

  // Cross-bucket config-transfer store: shape-free kernel signature ->
  // per-bucket admitted configs (best measured first). Filled by cold
  // bucketed compiles, read by the tuner prior of later buckets. In-memory
  // only: a later process rebuilds it as buckets compile cold (warm
  // requests never tune, so they never need a prior).
  struct TransferEntry {
    ShapeKey bucket;
    std::vector<std::string> configs;
  };
  // The nearest tuned bucket's configs for `signature` (BucketDistance to
  // `bucket`, lexicographic label tie-break; the same bucket is skipped —
  // that case is a structural cache hit and never reaches the tuner).
  std::vector<std::string> TransferPriorFor(std::uint64_t signature, const ShapeKey& bucket) const;
  // Records every tuned kernel of `compiled` under `bucket`.
  void RecordTransferConfigs(const CompiledModel& compiled, const ShapeKey& bucket);

  mutable Mutex transfer_mu_;
  std::map<std::uint64_t, std::vector<TransferEntry>> transfer_ SF_GUARDED_BY(transfer_mu_);

  FusionPatternRecorder fusion_;
};

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_CORE_ENGINE_H_
