#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/support/logging.h"
#include "src/support/string_util.h"

namespace spacefusion {

namespace {

// Index of the first bucket whose upper bound (4^i) holds `value`.
int BucketIndex(double value) {
  for (int i = 0; i < Histogram::kNumBuckets - 1; ++i) {
    if (value <= std::pow(4.0, i)) {
      return i;
    }
  }
  return Histogram::kNumBuckets - 1;
}

std::string FormatNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

void Histogram::Observe(double value) {
  if (!std::isfinite(value)) {
    return;  // NaN/Inf would poison sum, min/max, and have no bucket
  }
  MutexLock lock(mu_);
  if (stats_.bucket_counts.empty()) {
    stats_.bucket_counts.assign(kNumBuckets, 0);
  }
  if (stats_.count == 0 || value < stats_.min) {
    stats_.min = value;
  }
  if (stats_.count == 0 || value > stats_.max) {
    stats_.max = value;
  }
  ++stats_.count;
  stats_.sum += value;
  ++stats_.bucket_counts[static_cast<size_t>(BucketIndex(value))];
}

HistogramStats Histogram::stats() const {
  MutexLock lock(mu_);
  HistogramStats copy = stats_;
  if (copy.bucket_counts.empty()) {
    copy.bucket_counts.assign(kNumBuckets, 0);
  }
  return copy;
}

void Histogram::Reset() {
  MutexLock lock(mu_);
  stats_ = HistogramStats();
}

double HistogramStats::quantile(double q) const {
  if (count == 0 || bucket_counts.empty()) {
    return 0.0;
  }
  q = std::min(1.0, std::max(0.0, q));
  // Continuous target rank in (0, count]; walk the cumulative bucket counts
  // to the bucket containing it, then interpolate between the bucket's
  // bounds by the rank's position inside the bucket.
  const double rank = std::max(q * static_cast<double>(count), 1e-9);
  std::int64_t cumulative = 0;
  for (size_t i = 0; i < bucket_counts.size(); ++i) {
    const std::int64_t in_bucket = bucket_counts[i];
    if (in_bucket == 0) {
      continue;
    }
    if (static_cast<double>(cumulative + in_bucket) >= rank) {
      // Bucket i spans (4^(i-1), 4^i]; the first and last occupied buckets
      // are truncated to the observed min/max so the estimate never leaves
      // the data range (and single-sample histograms are exact).
      const double lo = i == 0 ? min : std::pow(4.0, static_cast<double>(i) - 1.0);
      const double hi =
          i + 1 == bucket_counts.size() ? max : std::pow(4.0, static_cast<double>(i));
      const double fraction = (rank - static_cast<double>(cumulative)) /
                              static_cast<double>(in_bucket);
      const double estimate = lo + (hi - lo) * fraction;
      return std::min(max, std::max(min, estimate));
    }
    cumulative += in_bucket;
  }
  return max;
}

std::int64_t MetricsSnapshot::counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double MetricsSnapshot::gauge(const std::string& name) const {
  auto it = gauges.find(name);
  return it == gauges.end() ? 0.0 : it->second;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += StrCat("\"", name, "\":", value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += StrCat("\"", name, "\":", FormatNumber(value));
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += StrCat("\"", name, "\":{\"count\":", h.count, ",\"sum\":", FormatNumber(h.sum),
                  ",\"min\":", FormatNumber(h.min), ",\"max\":", FormatNumber(h.max),
                  ",\"mean\":", FormatNumber(h.mean()), ",\"p50\":", FormatNumber(h.p50()),
                  ",\"p95\":", FormatNumber(h.p95()), ",\"p99\":", FormatNumber(h.p99()),
                  ",\"buckets\":[", StrJoin(h.bucket_counts, ","), "]}");
  }
  out += "}}";
  return out;
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    out += StrCat(name, " ", value, "\n");
  }
  for (const auto& [name, value] : gauges) {
    out += StrCat(name, " ", FormatNumber(value), "\n");
  }
  for (const auto& [name, h] : histograms) {
    out += StrCat(name, " count=", h.count, " sum=", FormatNumber(h.sum),
                  " mean=", FormatNumber(h.mean()), " p50=", FormatNumber(h.p50()),
                  " p95=", FormatNumber(h.p95()), " p99=", FormatNumber(h.p99()),
                  " min=", FormatNumber(h.min), " max=", FormatNumber(h.max), "\n");
  }
  return out;
}

namespace {

// Sanitizes a metric name to an OpenMetrics family name: [a-zA-Z0-9_:],
// never starting with a digit.
std::string FamilyName(const std::string& name) {
  std::string family;
  family.reserve(name.size());
  for (char c : name) {
    bool valid = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                 c == '_' || c == ':';
    family.push_back(valid ? c : '_');
  }
  if (family.empty() || (family[0] >= '0' && family[0] <= '9')) {
    family.insert(family.begin(), '_');
  }
  return family;
}

}  // namespace

std::string RenderOpenMetrics(const MetricsSnapshot& snapshot) {
  // Families sorted by name across kinds, each with one TYPE line.
  struct Family {
    const char* type = "";
    std::string samples;
  };
  std::map<std::string, Family> families;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string family = FamilyName(name);
    Family& f = families[family];
    f.type = "counter";
    f.samples += StrCat(family, "_total ", value, "\n");
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string family = FamilyName(name);
    Family& f = families[family];
    f.type = "gauge";
    f.samples += StrCat(family, " ", FormatNumber(value), "\n");
  }
  for (const auto& [name, h] : snapshot.histograms) {
    const std::string family = FamilyName(name);
    Family& f = families[family];
    f.type = "histogram";
    std::int64_t cumulative = 0;
    for (size_t i = 0; i < h.bucket_counts.size(); ++i) {
      cumulative += h.bucket_counts[i];
      std::string le = i + 1 == h.bucket_counts.size()
                           ? std::string("+Inf")
                           : FormatNumber(std::pow(4.0, static_cast<double>(i)));
      f.samples += StrCat(family, "_bucket{le=\"", le, "\"} ", cumulative, "\n");
    }
    if (h.bucket_counts.empty()) {
      f.samples += StrCat(family, "_bucket{le=\"+Inf\"} 0\n");
    }
    f.samples += StrCat(family, "_sum ", FormatNumber(h.sum), "\n");
    f.samples += StrCat(family, "_count ", h.count, "\n");
  }

  std::string out;
  for (const auto& [family, entry] : families) {
    out += StrCat("# TYPE ", family, " ", entry.type, "\n", entry.samples);
  }
  out += "# EOF\n";
  return out;
}

namespace obs_internal {

SharedMutex& ObsStateMutex() {
  static SharedMutex* mu = new SharedMutex();  // leaked: usable at exit
  return *mu;
}

}  // namespace obs_internal

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // leaked: usable at exit
  return *registry;
}

void MetricsRegistry::CheckKind(const std::string& name, Kind kind) {
  auto [it, inserted] = kinds_.emplace(name, kind);
  SF_CHECK(it->second == kind) << "metric " << name << " already registered as another kind";
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  CheckKind(name, Kind::kCounter);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  CheckKind(name, Kind::kGauge);
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(mu_);
  CheckKind(name, Kind::kHistogram);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>();
  }
  return *slot;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(mu_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace(name, counter->value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.emplace(name, gauge->value());
  }
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms.emplace(name, histogram->stats());
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  // Exclusive against ObsCompileLock holders: wait out in-flight compiles so
  // no request sees a half-zeroed registry. Lock order: obs mutex before the
  // registry's own mu_ (TraceSession start/stop uses the same order).
  WriterMutexLock obs_lock(obs_internal::ObsStateMutex());
  MutexLock lock(mu_);
  for (auto& [name, counter] : counters_) {
    counter->Reset();
  }
  for (auto& [name, gauge] : gauges_) {
    gauge->Reset();
  }
  for (auto& [name, histogram] : histograms_) {
    histogram->Reset();
  }
}

}  // namespace spacefusion
