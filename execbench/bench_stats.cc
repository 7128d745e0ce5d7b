#include "execbench/bench_stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace execbench {

std::size_t NearestRankIndex(std::size_t n, double q) {
  if (n == 0) {
    return 0;
  }
  const double rank = std::ceil(q * static_cast<double>(n));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return std::min(index, n - 1);
}

std::size_t SamplesBeyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - 1 - NearestRankIndex(n, q);
}

std::size_t MinSamplesForTail(double q, std::size_t beyond) {
  std::size_t n = 1;
  while (SamplesBeyond(n, q) < beyond) {
    ++n;
  }
  return n;
}

double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return values[NearestRankIndex(values.size(), q)];
}

std::size_t ChunkRequests(std::size_t cycle, std::size_t min_requests) {
  const std::size_t cycles = std::max<std::size_t>(1, (min_requests + cycle - 1) / cycle);
  return cycles * cycle;
}

double MedianChunkRate(const std::vector<double>& work, const std::vector<double>& seconds,
                       std::size_t chunk) {
  std::vector<double> rates;
  for (std::size_t begin = 0; chunk > 0 && begin + chunk <= work.size(); begin += chunk) {
    double chunk_work = 0.0;
    double chunk_seconds = 0.0;
    for (std::size_t i = begin; i < begin + chunk; ++i) {
      chunk_work += work[i];
      chunk_seconds += seconds[i];
    }
    rates.push_back(chunk_work / chunk_seconds);
  }
  return rates.empty() ? 0.0 : Quantile(rates, 0.5);
}

int SpanRecorder::Begin(const char* name, std::int64_t request) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
  // Spans close in LIFO order in this single-threaded benchmark.
  if (!open_.empty() && open_.back() == index) {
    open_.pop_back();
  }
}

std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    std::int64_t covered = 0;
    std::int64_t cursor = span.start_ns;
    for (const auto& [start, end] : kids) {
      const std::int64_t from = std::max(start, cursor);
      const std::int64_t to = std::min(end, span.end_ns);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    self[i] = (span.end_ns - span.start_ns) - covered;
  }
  return self;
}

std::string SpanRecorder::ToChromeJson() const {
  const std::vector<std::int64_t> self = SelfTimesNs(spans_);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out = "{\"traceEvents\":[";
  char buf[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"span\":%zu,\"parent\":%d,\"request\":%lld,\"self_us\":%.3f}}",
                  i == 0 ? "" : ",\n", s.name, (s.start_ns - origin) / 1e3,
                  (s.end_ns - s.start_ns) / 1e3, i, s.parent, static_cast<long long>(s.request),
                  self[i] / 1e3);
    out += buf;
  }
  out += "]}\n";
  return out;
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t SplitMix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<ShapeRequest> LogUniformShapeRequests(std::uint64_t seed, std::size_t count,
                                                  std::int64_t lo, std::int64_t hi, int layers) {
  std::uint64_t state = seed;
  auto uniform = [&state] { return static_cast<double>(SplitMix64(&state) >> 11) * 0x1.0p-53; };
  const double log_lo = std::log(static_cast<double>(lo));
  const double log_span = std::log(static_cast<double>(hi + 1)) - log_lo;
  std::vector<std::int64_t> seqs;
  for (std::size_t i = 0; i < count; ++i) {
    const double u = (static_cast<double>(i) + uniform()) / static_cast<double>(count);
    const auto seq = static_cast<std::int64_t>(std::floor(std::exp(log_lo + u * log_span)));
    seqs.push_back(std::clamp(seq, lo, hi));
  }
  for (std::size_t i = count; i > 1; --i) {  // Fisher-Yates
    std::swap(seqs[i - 1], seqs[SplitMix64(&state) % i]);
  }
  std::vector<ShapeRequest> requests;
  for (std::size_t i = 0; i < count; ++i) {
    requests.push_back({seqs[i], static_cast<int>(i % static_cast<std::size_t>(layers))});
  }
  return requests;
}

}  // namespace execbench
