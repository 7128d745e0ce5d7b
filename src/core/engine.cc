#include "src/core/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "src/analysis/race_analyzer.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/support/logging.h"

namespace spacefusion {

namespace {

void MixInto(std::uint64_t* h, std::uint64_t v) {
  *h ^= v;
  *h *= 1099511628211ULL;  // FNV prime
}

std::uint64_t DoubleBits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void MixString(std::uint64_t* h, const std::string& s) {
  MixInto(h, s.size());
  for (char c : s) {
    MixInto(h, static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

// The checkers' findings as report entries: stable code, severity, rendered line.
void FillDiagnostics(const DiagnosticReport& found, CompileReport* report) {
  for (const Diagnostic& d : found.diagnostics()) {
    report->diagnostics.push_back({d.code, DiagSeverityName(d.severity), d.ToString()});
  }
  report->verifier_errors = found.error_count();
  report->verifier_warnings = found.warning_count();
}

// Tuning funnel + memory-plan summary of a finished subprogram. Used for
// cold compiles and cache hits alike (the cached entry carries its stats).
void FillResultSummary(const CompiledSubprogram& compiled, CompileReport* report) {
  report->configs_enumerated = compiled.tuning.configs_enumerated;
  report->configs_screened = compiled.tuning.configs_screened;
  report->configs_admitted = compiled.tuning.configs_tried;
  report->tuning_seconds = compiled.tuning.simulated_tuning_seconds;
  report->kernels = static_cast<int>(compiled.program.kernels.size());
  for (const SmgSchedule& kernel : compiled.program.kernels) {
    report->smem_bytes = std::max(report->smem_bytes, kernel.memory.smem_bytes);
    report->reg_bytes = std::max(report->reg_bytes, kernel.memory.reg_bytes);
  }
  report->modeled_time_us = compiled.estimate.time_us;
  report->transfer_seeded = compiled.tuning.configs_transfer_seeded;
}

}  // namespace

std::uint64_t CompileOptionsDigest(const CompileOptions& options) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  const GpuArch& arch = options.arch;
  MixString(&h, arch.name);
  MixInto(&h, static_cast<std::uint64_t>(arch.num_sms));
  MixInto(&h, DoubleBits(arch.fp16_tflops));
  MixInto(&h, static_cast<std::uint64_t>(arch.max_threads_per_sm));
  MixInto(&h, static_cast<std::uint64_t>(arch.max_blocks_per_sm));
  MixInto(&h, static_cast<std::uint64_t>(arch.smem_per_sm));
  MixInto(&h, static_cast<std::uint64_t>(arch.smem_per_block_max));
  MixInto(&h, static_cast<std::uint64_t>(arch.regfile_per_sm));
  MixInto(&h, static_cast<std::uint64_t>(arch.reg_per_block_max));
  MixInto(&h, static_cast<std::uint64_t>(arch.l1_per_sm));
  MixInto(&h, static_cast<std::uint64_t>(arch.l2_bytes));
  MixInto(&h, DoubleBits(arch.dram_gbps));
  MixInto(&h, DoubleBits(arch.l2_gbps));
  MixInto(&h, static_cast<std::uint64_t>(arch.cache_line_bytes));
  MixInto(&h, static_cast<std::uint64_t>(arch.l2_assoc));
  MixInto(&h, DoubleBits(arch.launch_overhead_us));

  MixInto(&h, options.enable_temporal_slicing ? 7u : 3u);
  MixInto(&h, options.enable_auto_scheduling ? 11u : 5u);
  MixInto(&h, static_cast<std::uint64_t>(options.verify));

  // The slots of deleted options stay, fixed at the values they always
  // had, so digests and persisted .sfpc entries stay valid: the search
  // bounds (max_block 256, min_block 1, max_configs 256; now constants of
  // EnumerateConfigs), dominance pruning ("off"), and below the tuner
  // constants that replaced four TunerOptions fields.
  MixInto(&h, 256u);
  MixInto(&h, 1u);
  MixInto(&h, 256u);
  MixInto(&h, 17u);

  MixInto(&h, DoubleBits(kEarlyQuitAlpha));
  MixInto(&h, static_cast<std::uint64_t>(kWarmupRuns));
  MixInto(&h, static_cast<std::uint64_t>(kTimedRuns));
  MixInto(&h, options.tuner.enable_early_quit ? 19u : 23u);
  MixInto(&h, static_cast<std::uint64_t>(static_cast<std::int64_t>(options.tuner.screen_top_k)));
  MixInto(&h, DoubleBits(kScreenEpsilon));
  // tuner.transfer_prior is deliberately excluded: a prior reorders the
  // modeled measurement schedule but never changes the selected program, so
  // cache keys are identical with or without one.
  if (!options.shape_bucket.empty()) {
    // Mixed only when set, so shape-agnostic digests are unchanged from the
    // pre-bucket format and existing caches stay warm.
    MixString(&h, options.shape_bucket);
  }
  return h;
}

CompilerEngine::CompilerEngine(EngineOptions options) : options_(std::move(options)) {
  default_digest_ = CompileOptionsDigest(options_.compile);
  if (!options_.cache_dir.empty()) {
    persistent_ = std::make_unique<PersistentProgramCache>(options_.cache_dir);
  }
}

CompilerEngine::CompilerEngine(CompileOptions options)
    : CompilerEngine(EngineOptions(std::move(options))) {}

std::uint64_t CompilerEngine::Fingerprint(const Graph& graph) const {
  return options_.fingerprint_fn ? options_.fingerprint_fn(graph) : graph.StructuralHash();
}

StatusOr<CompiledSubprogram> CompilerEngine::Compile(const Graph& graph) {
  return Compile(graph, options_.compile);
}

StatusOr<CompiledSubprogram> CompilerEngine::Compile(const Graph& graph,
                                                     const CompileOptions& options) {
  CompileReport report;
  return CompileWithReport(graph, options, /*model_name=*/"", &report);
}

std::string CompilerEngine::NextRequestId() {
  // Deterministic (no wall clock, no randomness): compiles stay bit-identical
  // run to run, and ids double as stable report file names.
  static std::atomic<std::int64_t> next{0};
  char buf[24];
  std::snprintf(buf, sizeof(buf), "req-%06lld",
                static_cast<long long>(next.fetch_add(1, std::memory_order_relaxed) + 1));
  return buf;
}

StatusOr<CompiledSubprogram> CompilerEngine::CompileWithReport(const Graph& graph,
                                                               const CompileOptions& options,
                                                               const std::string& model_name,
                                                               CompileReport* report) {
  // Shared side of the obs state lock: a concurrent MetricsRegistry::Reset
  // or TraceSession start/stop waits for this request to finish instead of
  // tearing its metrics/spans in half. Never nested (CompileModel defers to
  // this method for each subprogram, one at a time).
  ObsCompileLock obs_lock;
  const auto request_start = std::chrono::steady_clock::now();
  RequestKey key;
  key.digest = &options == &options_.compile ? default_digest_ : CompileOptionsDigest(options);
  key.fingerprint = Fingerprint(graph);
  key.cache_key = 1469598103934665603ULL;
  MixInto(&key.cache_key, key.fingerprint);
  MixInto(&key.cache_key, key.digest);
  key.canonical = graph.CanonicalForm();
  report->request_id = NextRequestId();
  report->model = model_name;
  report->graph_fingerprint = key.fingerprint;
  report->options_digest = key.digest;
  // Subprogram graphs are built at the bucket shape, so at this level the
  // shape *is* the bucket; CompileModelForShape stamps the exact request
  // shape onto the model-level report.
  report->shape = options.shape_bucket;
  report->bucket = options.shape_bucket;

  CompiledSubprogram cached;
  const char* outcome = Lookup(options, key, report, &cached);
  StatusOr<CompiledSubprogram> result = std::move(cached);
  const bool cold = outcome == nullptr;
  if (cold) {
    outcome = "cold";
    result = CompileCold(graph, options, key, report);
  }

  // The finish tail, one for every outcome. A failed request's report is
  // its post-mortem: the status, the pass timings up to and including the
  // failing pass, and every diagnostic.
  report->wall_ms = MsSince(request_start);
  if (result.ok()) {
    result->request_id = report->request_id;
    FillResultSummary(*result, report);
    report->outcome = outcome;
    report->bucket_hit = !cold && !options.shape_bucket.empty();
  } else {
    report->outcome = "error";
    report->status_message = result.status().ToString();
  }
  if (options_.report_sink != nullptr) {
    options_.report_sink->Emit(*report);
  }
  return result;
}

const char* CompilerEngine::Lookup(const CompileOptions& options, const RequestKey& key,
                                   CompileReport* report, CompiledSubprogram* out) {
  bool collided = false;
  {
    MutexLock lock(cache_mu_);
    auto it = cache_.find(key.cache_key);
    if (it != cache_.end()) {
      for (const CacheEntry& entry : it->second) {
        if (entry.digest == key.digest && entry.canonical == key.canonical) {
          ++stats_.hits;
          SF_COUNTER_ADD("engine.cache.hits", 1);
          SF_COUNTER_ADD("compiler.cache_hits", 1);
          *out = entry.compiled;
          return "cache_hit";
        }
        collided = true;
      }
    }
    if (collided) {
      ++stats_.collisions;
      SF_COUNTER_ADD("engine.cache.collisions", 1);
    }
    ++stats_.misses;
    SF_COUNTER_ADD("engine.cache.misses", 1);
    SF_COUNTER_ADD("compiler.cache_misses", 1);
  }
  // A fingerprint alias: the request recovers by compiling fresh into the
  // same bucket, and its report says so.
  report->cache_collision = collided;
  if (persistent_ == nullptr) {
    return nullptr;
  }
  std::string detail;
  switch (persistent_->Load(key.fingerprint, key.digest, options.arch.name, key.canonical, out,
                            &detail, options.shape_bucket)) {
    case PersistentProgramCache::LoadResult::kHit: {
      MutexLock lock(cache_mu_);
      ++stats_.persistent_hits;
      InsertIfAbsent(key, *out);
      SF_COUNTER_ADD("engine.cache.persistent_hits", 1);
      return "persistent_hit";
    }
    case PersistentProgramCache::LoadResult::kStale: {
      // Options or code drifted since the entry was written: by design a
      // silent cold fallback, never an error surfaced to the caller.
      {
        MutexLock lock(cache_mu_);
        ++stats_.persistent_stale;
      }
      SF_COUNTER_ADD("engine.cache.persistent_stale", 1);
      return nullptr;
    }
    case PersistentProgramCache::LoadResult::kCorrupt: {
      {
        MutexLock lock(cache_mu_);
        ++stats_.persistent_corrupt;
      }
      SF_COUNTER_ADD("engine.cache.persistent_corrupt", 1);
      SF_LOG(Warning) << "persistent cache entry corrupt, recompiling cold: " << detail;
      return nullptr;
    }
    case PersistentProgramCache::LoadResult::kMiss:
      break;
  }
  return nullptr;
}

StatusOr<CompiledSubprogram> CompilerEngine::CompileCold(const Graph& graph,
                                                         const CompileOptions& options,
                                                         const RequestKey& key,
                                                         CompileReport* report) {
  SF_ASSIGN_OR_RETURN(CompiledSubprogram result, RunPassList(graph, options, report));
  if (persistent_ != nullptr) {
    // Admission gate: a racy program must never be persisted — a later
    // process would serve it without recompiling, so disk is where a bad
    // schedule would outlive the compiler bug that produced it. The result
    // is still returned to the caller (the Analyze pass owns failing the
    // compile; here only persistence is refused).
    DiagnosticReport admission = options_.admission_analysis
                                     ? options_.admission_analysis(result.program, graph)
                                     : AnalyzeCompiledProgram(result.program, graph);
    if (!admission.ok()) {
      {
        MutexLock lock(cache_mu_);
        ++stats_.analysis_rejected;
      }
      SF_COUNTER_ADD("engine.cache.analysis_rejected", 1);
      SF_LOG(Warning) << "racy schedule not persisted (" << admission.error_count()
                      << " SFV06xx finding(s)): " << admission.ToString();
    } else {
      // Best effort: a full disk or unwritable directory costs persistence,
      // never the compile result.
      Status stored = persistent_->Store(key.fingerprint, key.digest, options.arch.name,
                                         key.canonical, result, options.shape_bucket);
      if (stored.ok()) {
        SF_COUNTER_ADD("engine.cache.persistent_stores", 1);
      } else {
        SF_LOG(Warning) << "persistent cache store failed: " << stored.ToString();
      }
    }
  }
  {
    MutexLock lock(cache_mu_);
    InsertIfAbsent(key, result);
  }
  return result;
}

void CompilerEngine::InsertIfAbsent(const RequestKey& key, const CompiledSubprogram& compiled) {
  std::vector<CacheEntry>& bucket = cache_[key.cache_key];
  for (const CacheEntry& entry : bucket) {
    if (entry.digest == key.digest && entry.canonical == key.canonical) {
      return;  // a concurrent request stored it first
    }
  }
  bucket.push_back(CacheEntry{key.digest, key.canonical, compiled});
}

StatusOr<CompiledSubprogram> CompilerEngine::RunPassList(const Graph& graph,
                                                         const CompileOptions& options,
                                                         CompileReport* report) {
  ScopedSpan compile_span("compiler.compile");
  compile_span.Arg("graph", graph.name()).Arg("ops", static_cast<std::int64_t>(graph.ops().size()));
  SF_COUNTER_ADD("compiler.subprograms_compiled", 1);

  CostModel cost(options.arch);
  CompilationState state;
  state.graph = &graph;
  state.options = &options;
  state.rc = ResourceConfig::FromArch(options.arch);
  state.cost = &cost;
  state.fusion = &fusion_;

  PassManagerOptions pass_options;
  pass_options.dump_after_pass = options_.dump_after_pass;
  PassManager manager(BuildCompilePassList(options), std::move(pass_options));
  Status run_status = manager.Run(&state);
  // Pass timings and diagnostics reach the report even when a pass failed:
  // the partial breakdown is exactly what a post-mortem needs.
  for (const PassTiming& timing : manager.timings()) {
    report->passes.push_back({timing.pass, timing.ms, timing.cpu_ms});
  }
  FillDiagnostics(state.diagnostics, report);
  SF_RETURN_IF_ERROR(run_status);

  CompiledSubprogram best = std::move(state.best);
  // Table 4's wall-clock columns, rebuilt from the pass timings: the
  // enumeration column is the time EnumerateConfigs ran inside the
  // SlicingPipeline pass, and the slicing column is the rest of the
  // scheduling passes (SMG build + slicing/partitioning pipeline).
  const double scheduling_ms = manager.PassMs("BuildSmg") + manager.PassMs("SlicingPipeline");
  best.compile_time.slicing_ms = scheduling_ms - state.enum_cfg_ms;
  best.compile_time.enum_cfg_ms = state.enum_cfg_ms;
  best.compile_time.tuning_s = state.total_tuning_s;
  best.tuning.configs_enumerated = state.enumerated_configs;
  best.tuning.configs_screened = state.configs_screened;
  best.tuning.configs_tried = state.configs_tried;
  best.tuning.configs_transfer_seeded = state.configs_transfer_seeded;
  best.tuning.best_time_us = best.estimate.time_us;
  best.tuning.simulated_tuning_seconds = state.total_tuning_s;
  best.tuned_kernels = std::move(state.tuned_kernels);
  compile_span.Arg("configs_screened", state.configs_screened)
      .Arg("configs_tried", state.configs_tried)
      .Arg("best_us", best.estimate.time_us);
  return best;
}

StatusOr<CompiledModel> CompilerEngine::CompileModel(const ModelGraph& model) {
  return CompileModel(model, options_.compile);
}

StatusOr<CompiledModel> CompilerEngine::CompileModel(const ModelGraph& model,
                                                     const CompileOptions& options) {
  ScopedSpan model_span("compiler.compile_model");
  model_span.Arg("model", model.config.name)
      .Arg("subprograms", static_cast<std::int64_t>(model.subprograms.size()));
  const auto model_start = std::chrono::steady_clock::now();
  CompiledModel out;
  out.report.request_id = NextRequestId();
  out.report.model = model.config.name;
  out.report.options_digest =
      &options == &options_.compile ? default_digest_ : CompileOptionsDigest(options);
  // As on the per-subprogram reports; CompileModelForShape later stamps the
  // exact request shape.
  out.report.shape = options.shape_bucket;
  out.report.bucket = options.shape_bucket;
  std::uint64_t model_fingerprint = 1469598103934665603ULL;
  bool any_cold = false;
  bool any_persistent = false;
  // Intra-request dedup: repeated subprograms of *this* model compile once
  // and count into CompiledModel::cache_hits (the paper's statistic). They
  // are grouped by canonical form, as the program cache confirms its hits,
  // so a fingerprint collision cannot alias two different subprograms.
  // Cross-request reuse happens inside CompileWithReport via the program
  // cache.
  std::map<std::string, size_t> unique_index;
  for (const Subprogram& sub : model.subprograms) {
    MixInto(&model_fingerprint, Fingerprint(sub.graph));
    auto [it, first_seen] =
        unique_index.try_emplace(sub.graph.CanonicalForm(), out.unique_subprograms.size());
    if (first_seen) {
      CompileReport sub_report;
      SF_ASSIGN_OR_RETURN(CompiledSubprogram compiled,
                          CompileWithReport(sub.graph, options, model.config.name, &sub_report));
      out.compile_time.slicing_ms += compiled.compile_time.slicing_ms;
      out.compile_time.enum_cfg_ms += compiled.compile_time.enum_cfg_ms;
      out.compile_time.tuning_s += compiled.compile_time.tuning_s;
      any_cold = any_cold || sub_report.outcome == "cold";
      any_persistent = any_persistent || sub_report.outcome == "persistent_hit";
      out.report.Merge(sub_report);
      out.unique_subprograms.push_back(std::move(compiled));
    } else {
      ++out.cache_hits;
      SF_COUNTER_ADD("compiler.cache_hits", 1);
    }
    out.sub_to_unique.push_back(it->second);
    out.total += out.unique_subprograms[it->second].estimate.Scaled(sub.repeat);
  }
  out.report.graph_fingerprint = model_fingerprint;
  // Priority encodes "how much work ran": any cold compile marks the model
  // cold; a fully warm model distinguishes disk-warmed from memory-served.
  out.report.outcome = any_cold || out.unique_subprograms.empty() ? "cold"
                       : any_persistent                           ? "persistent_hit"
                                                                  : "cache_hit";
  out.report.bucket_hit = !out.report.bucket.empty() && !any_cold && !out.unique_subprograms.empty();
  out.report.modeled_time_us = out.total.time_us;
  out.report.wall_ms = MsSince(model_start);
  model_span.Arg("cache_hits", out.cache_hits).Arg("total_us", out.total.time_us);
  return out;
}

std::vector<std::string> CompilerEngine::TransferPriorFor(std::uint64_t signature,
                                                          const ShapeKey& bucket) const {
  MutexLock lock(transfer_mu_);
  auto it = transfer_.find(signature);
  if (it == transfer_.end()) {
    return {};
  }
  const TransferEntry* best = nullptr;
  double best_dist = 0.0;
  for (const TransferEntry& entry : it->second) {
    if (entry.bucket == bucket) {
      // The same bucket is served by the structural cache; when the tuner
      // runs at all, only *neighboring* buckets can help.
      continue;
    }
    const double dist = BucketDistance(entry.bucket, bucket);
    if (best == nullptr || dist < best_dist ||
        (dist == best_dist && entry.bucket.Label() < best->bucket.Label())) {
      best = &entry;
      best_dist = dist;
    }
  }
  return best != nullptr ? best->configs : std::vector<std::string>();
}

void CompilerEngine::RecordTransferConfigs(const CompiledModel& compiled, const ShapeKey& bucket) {
  MutexLock lock(transfer_mu_);
  for (const CompiledSubprogram& sub : compiled.unique_subprograms) {
    for (const TunedKernelRecord& record : sub.tuned_kernels) {
      std::vector<TransferEntry>& entries = transfer_[record.signature];
      bool replaced = false;
      for (TransferEntry& entry : entries) {
        if (entry.bucket == bucket) {
          entry.configs = record.admitted_configs;
          replaced = true;
          break;
        }
      }
      if (!replaced) {
        entries.push_back(TransferEntry{bucket, record.admitted_configs});
      }
    }
  }
}

StatusOr<ShapeCompileResult> CompilerEngine::CompileModelForShape(ModelKind kind,
                                                                  const ShapeKey& shape) {
  return CompileModelForShape(kind, shape, options_.compile);
}

StatusOr<ShapeCompileResult> CompilerEngine::CompileModelForShape(ModelKind kind,
                                                                  const ShapeKey& shape,
                                                                  const CompileOptions& options) {
  return CompileModelForShape(kind, shape, options, BucketingPolicy::PowersOfTwo());
}

StatusOr<ShapeCompileResult> CompilerEngine::CompileModelForShape(ModelKind kind,
                                                                  const ShapeKey& shape,
                                                                  const CompileOptions& base,
                                                                  const BucketingPolicy& policy) {
  ScopedSpan span("engine.compile_for_shape");
  ShapeCompileResult out;
  out.bucketed = BuildModelBucketed(kind, shape, policy);
  const ShapeKey bucket_key = out.bucketed.bucket_key;
  span.Arg("model", out.bucketed.exact.name)
      .Arg("shape", shape.Label())
      .Arg("bucket", bucket_key.Label());

  CompileOptions options = base;
  options.shape_bucket = bucket_key.Label();
  const GpuArch arch = options.arch;
  const ResourceConfig rc = ResourceConfig::FromArch(options.arch);
  options.tuner.transfer_prior = [this, bucket_key, arch, rc](const SmgSchedule& schedule) {
    return TransferPriorFor(TransferSignature(schedule, arch, rc), bucket_key);
  };

  SF_ASSIGN_OR_RETURN(out.compiled, CompileModel(out.bucketed.model, options));
  RecordTransferConfigs(out.compiled, bucket_key);
  out.bucket_hit = out.compiled.report.bucket_hit;
  out.transfer_seeded = out.compiled.report.transfer_seeded;
  // The model-level report distinguishes the request shape from its bucket;
  // per-subprogram reports (already emitted) carry the bucket in both.
  out.compiled.report.shape = shape.Label();

  {
    MutexLock lock(cache_mu_);
    if (out.bucket_hit) {
      ++stats_.bucket_hits;
    } else {
      ++stats_.bucket_misses;
    }
    stats_.transfer_seeded += out.transfer_seeded;
  }
  SF_COUNTER_ADD(out.bucket_hit ? "engine.bucket.hits" : "engine.bucket.misses", 1);
  if (out.transfer_seeded > 0) {
    SF_COUNTER_ADD("engine.bucket.transfer_seeded", out.transfer_seeded);
  }
  return out;
}

CompilerEngine::CacheStats CompilerEngine::cache_stats() const {
  MutexLock lock(cache_mu_);
  return stats_;
}

std::int64_t CompilerEngine::program_cache_size() const {
  MutexLock lock(cache_mu_);
  std::int64_t n = 0;
  for (const auto& [key, bucket] : cache_) {
    n += static_cast<std::int64_t>(bucket.size());
  }
  return n;
}

}  // namespace spacefusion
