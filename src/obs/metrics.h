// Process-wide metrics registry: named counters, gauges, and histograms.
//
// The compiler, scheduler, tuner, simulators, and executor increment these
// as they run (configs tried / early-quit, partition rounds, compile-cache
// hits, graph splits, simulated DRAM bytes, cache hit rates, kernel
// launches, ...). A MetricsSnapshot freezes every value and serializes to
// JSON — the bench harness writes one next to each table/figure's timings.
//
// All types are thread-safe. Metric objects are never destroyed or
// re-created once registered (Reset() zeroes values in place), so hot paths
// may cache references:
//
//   SF_COUNTER_ADD("tuner.configs_tried", n);
//   SF_GAUGE_SET("sim.l2_hit_rate", rate);
//   SF_HISTOGRAM_OBSERVE("search.configs_per_kernel", configs.size());
#ifndef SPACEFUSION_SRC_OBS_METRICS_H_
#define SPACEFUSION_SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/support/thread_annotations.h"

namespace spacefusion {

class Counter {
 public:
  void Increment(std::int64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

struct HistogramStats {
  std::int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  // bucket_counts[i] counts observations with value <= 4^i; the final
  // bucket is the +Inf overflow.
  std::vector<std::int64_t> bucket_counts;

  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }

  // Quantile estimate from the bucket counts: the target rank's bucket is
  // found by cumulative count and the value interpolated linearly between
  // the bucket bounds, clamped to the observed [min, max]. Exact for empty
  // (0) and single-sample histograms; q is clamped to [0, 1].
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }
};

// Exponential-bucket histogram (upper bounds 1, 4, 16, ..., 4^15, +Inf) —
// wide enough for microsecond timings and DRAM byte counts alike.
// Non-finite observations (NaN, ±Inf) are rejected: they would poison sum /
// min / max and have no bucket.
class Histogram {
 public:
  static constexpr int kNumBuckets = 17;  // 16 finite bounds + overflow

  void Observe(double value);
  HistogramStats stats() const;
  void Reset();

 private:
  mutable Mutex mu_;
  HistogramStats stats_ SF_GUARDED_BY(mu_);
};

// A frozen copy of every registered metric.
struct MetricsSnapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramStats> histograms;

  // Missing names read as zero, so callers need no existence checks.
  std::int64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;

  std::string ToJson() const;
  // Human-readable rendering (one metric per line) for CLI --metrics flags.
  std::string ToText() const;
};

// Renders a snapshot as OpenMetrics / Prometheus text exposition: metric
// names are sanitized to [a-zA-Z0-9_:] ("engine.cache.hits" becomes family
// "engine_cache_hits" with a "_total" counter sample), and histograms
// expose cumulative le="" buckets plus _sum/_count. The document always
// ends with "# EOF".
std::string RenderOpenMetrics(const MetricsSnapshot& snapshot);

class MetricsRegistry {
 public:
  // The process-wide registry every SF_*-macro records into.
  static MetricsRegistry& Global();

  // Finds or creates; the returned reference stays valid for the registry's
  // lifetime. A name registers at most one kind (counter xor gauge xor
  // histogram); reusing it as another kind aborts.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;
  // Snapshot rendered as OpenMetrics text (scrape endpoint payload).
  std::string RenderOpenMetrics() const { return ::spacefusion::RenderOpenMetrics(Snapshot()); }

  // Zeroes every metric in place (bench / test isolation). References
  // handed out earlier remain valid. Excluded against in-flight compiles:
  // Reset waits for every open ObsCompileLock, so a concurrent
  // CompilerEngine request is never half-zeroed.
  void Reset();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  void CheckKind(const std::string& name, Kind kind) SF_REQUIRES(mu_);

  mutable Mutex mu_;
  std::map<std::string, Kind> kinds_ SF_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Counter>> counters_ SF_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ SF_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_ SF_GUARDED_BY(mu_);
};

namespace obs_internal {

// Reader/writer lock serializing whole-subsystem observability mutations
// (MetricsRegistry::Reset, TraceSession start/stop) against in-flight
// compiles. Compiles take the shared side via ObsCompileLock; the mutators
// take the exclusive side internally. Leaked, like the registries, so it is
// usable during static destruction.
SharedMutex& ObsStateMutex();

}  // namespace obs_internal

// Held (shared) by CompilerEngine for the duration of one uncached compile:
// a concurrent MetricsRegistry::Reset() or TraceSession start/stop blocks
// until the compile finishes instead of tearing its metrics/spans in half.
// Not recursive — acquire once per compile request, never nested. Opaque to
// thread-safety analysis: no data is SF_GUARDED_BY the obs mutex (it orders
// whole-subsystem mutations, not field access), so the shared hold is not a
// capability any caller needs to see.
class ObsCompileLock {
 public:
  ObsCompileLock() SF_NO_THREAD_SAFETY_ANALYSIS { obs_internal::ObsStateMutex().lock_shared(); }
  ~ObsCompileLock() SF_NO_THREAD_SAFETY_ANALYSIS { obs_internal::ObsStateMutex().unlock_shared(); }

  ObsCompileLock(const ObsCompileLock&) = delete;
  ObsCompileLock& operator=(const ObsCompileLock&) = delete;
};

}  // namespace spacefusion

// Hot-path helpers: the registry lookup happens once per call site.
#define SF_COUNTER_ADD(name, delta)                                    \
  do {                                                                 \
    static ::spacefusion::Counter& sf_counter_ref_ =                   \
        ::spacefusion::MetricsRegistry::Global().GetCounter(name);     \
    sf_counter_ref_.Increment(delta);                                  \
  } while (0)

#define SF_GAUGE_SET(name, value)                                      \
  do {                                                                 \
    static ::spacefusion::Gauge& sf_gauge_ref_ =                       \
        ::spacefusion::MetricsRegistry::Global().GetGauge(name);       \
    sf_gauge_ref_.Set(value);                                          \
  } while (0)

#define SF_HISTOGRAM_OBSERVE(name, value)                              \
  do {                                                                 \
    static ::spacefusion::Histogram& sf_histogram_ref_ =               \
        ::spacefusion::MetricsRegistry::Global().GetHistogram(name);   \
    sf_histogram_ref_.Observe(value);                                  \
  } while (0)

#endif  // SPACEFUSION_SRC_OBS_METRICS_H_
