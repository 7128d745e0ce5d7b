// The execution benchmark's own arithmetic, kept apart from the workloads so
// it can be unit-tested: percentile selection, the span recorder and span
// self time, and the seeded request sequences.
#ifndef SPACEFUSION_EXECBENCH_BENCH_STATS_H_
#define SPACEFUSION_EXECBENCH_BENCH_STATS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace execbench {

// ---- Percentiles -----------------------------------------------------------

// Nearest-rank index of quantile q (0 < q <= 1) in a sorted sample of size
// n: the smallest index i with (i + 1) >= q * n.
std::size_t NearestRankIndex(std::size_t n, double q);

// Samples strictly above the nearest-rank quantile q of n samples.
std::size_t SamplesBeyond(std::size_t n, double q);

// Smallest n for which quantile q has at least `beyond` samples above it
// (q = 0.9, beyond = 10 gives 100).
std::size_t MinSamplesForTail(double q, std::size_t beyond);

// Nearest-rank quantile of `values` (need not be sorted; must be non-empty).
double Quantile(std::vector<double> values, double q);

// ---- Throughput over chunks ---------------------------------------------------

// Requests per throughput chunk: the smallest whole number of request cycles
// that holds at least `min_requests` requests, so every chunk carries the
// same mix of work.
std::size_t ChunkRequests(std::size_t cycle, std::size_t min_requests);

// Median, over consecutive chunks of `chunk` requests, of the chunk's work
// divided by its time (sum of work[i] / sum of seconds[i]). A trailing
// partial chunk is ignored; 0 when there is no whole chunk. A host hiccup
// slows one chunk and moves the median little; a stall the program makes on
// every cycle slows every chunk.
double MedianChunkRate(const std::vector<double>& work, const std::vector<double>& seconds,
                       std::size_t chunk);

// ---- Spans -------------------------------------------------------------------

// One timed interval at a layer boundary. `name` must be a string literal.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;             // index into the recorder's spans, -1 = root
  std::int64_t request = -1;   // request id, -1 = not a request (set-up)
};

// Spans of one single-threaded run, kept in memory until the run ends.
// Nesting follows Begin/End order: a span begun while another is open
// becomes its child.
class SpanRecorder {
 public:
  int Begin(const char* name, std::int64_t request);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }

  // Chrome trace-event JSON ("X" events, microseconds) with each span's
  // parent, request id and self time in args.
  std::string ToChromeJson() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Each span's duration minus the part of its interval that its direct
// children cover (overlapping children are counted once), in ns.
std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans);

// Opens a span on construction and closes it on destruction; does nothing
// when the recorder is null (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, std::int64_t request = -1)
      : recorder_(recorder), index_(recorder != nullptr ? recorder->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

std::int64_t NowNs();

// ---- Seeded inputs -------------------------------------------------------

// SplitMix64 step: the benchmark's only source of randomness, so a seed
// fully determines every input.
std::uint64_t SplitMix64(std::uint64_t* state);

// One request of the mixed-shape workload: an exact sequence length and the
// encoder layer whose weights it uses.
struct ShapeRequest {
  std::int64_t seq = 0;
  int layer = 0;
  bool operator==(const ShapeRequest& other) const {
    return seq == other.seq && layer == other.layer;
  }
};

// `count` requests with seq drawn log-uniformly from [lo, hi] and layer
// i mod `layers`, fully determined by `seed`. The draw is stratified: one
// seq from each of `count` equal-probability slices of the log-uniform law,
// in a seeded order. Every seed thus carries nearly the same mix of sizes,
// so runs with different seeds do comparable work.
std::vector<ShapeRequest> LogUniformShapeRequests(std::uint64_t seed, std::size_t count,
                                                  std::int64_t lo, std::int64_t hi, int layers);

}  // namespace execbench

#endif  // SPACEFUSION_EXECBENCH_BENCH_STATS_H_
