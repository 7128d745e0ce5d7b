#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/engine.h"
#include "src/core/spacefusion.h"
#include "src/obs/metrics.h"
#include "src/obs/report.h"
#include "src/obs/stats.h"
#include "src/obs/trace.h"
#include "src/support/string_util.h"

namespace spacefusion {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON syntax checker, enough to prove the emitted trace / metrics
// documents are well-formed (objects, arrays, strings with escapes, numbers,
// bools, null). Chrome refuses malformed traces silently, so the tests
// validate the whole document, not just substrings.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    pos_ = 0;
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) {
      return false;
    }
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) {
        return false;
      }
      SkipWs();
      if (Peek() != ':') {
        return false;
      }
      ++pos_;
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character: must be escaped
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) {
          return false;
        }
        char e = text_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() || !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const std::string& word) {
    if (text_.compare(pos_, word.size(), word) != 0) {
      return false;
    }
    pos_ += word.size();
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

void SpinFor(std::chrono::microseconds duration) {
  auto end = std::chrono::steady_clock::now() + duration;
  while (std::chrono::steady_clock::now() < end) {
  }
}

// ---------------------------------------------------------------------------
// Tracer

TEST(TraceTest, DisabledByDefaultAndSpansAreNoOps) {
  EXPECT_FALSE(TracingEnabled());
  // Spans (and their args) outside any session or accumulator must not
  // record or crash.
  for (int i = 0; i < 1000; ++i) {
    ScopedSpan span("noop.span");
    span.Arg("i", i);
    EXPECT_FALSE(span.active());
  }
}

TEST(TraceTest, SessionCapturesSpansWithNames) {
  TraceSession session;
  EXPECT_TRUE(TracingEnabled());
  {
    SF_TRACE_SPAN("test.alpha");
    SpinFor(std::chrono::microseconds(100));
  }
  {
    SF_TRACE_SPAN("test.beta", "custom_cat");
  }
  ASSERT_TRUE(session.Stop().ok());
  EXPECT_FALSE(TracingEnabled());

  ASSERT_EQ(session.events().size(), 2u);
  EXPECT_EQ(session.events()[0].name, "test.alpha");
  EXPECT_EQ(session.events()[0].cat, "compile");
  EXPECT_GT(session.events()[0].dur_us, 0.0);
  EXPECT_EQ(session.events()[1].name, "test.beta");
  EXPECT_EQ(session.events()[1].cat, "custom_cat");
}

TEST(TraceTest, NestedSpansHaveContainedTimestamps) {
  TraceSession session;
  {
    ScopedSpan outer("test.outer");
    SpinFor(std::chrono::microseconds(50));
    {
      ScopedSpan inner("test.inner");
      SpinFor(std::chrono::microseconds(50));
    }
    SpinFor(std::chrono::microseconds(50));
  }
  ASSERT_TRUE(session.Stop().ok());

  // Spans finish inner-first.
  ASSERT_EQ(session.events().size(), 2u);
  const TraceEvent& inner = session.events()[0];
  const TraceEvent& outer = session.events()[1];
  EXPECT_EQ(inner.name, "test.inner");
  EXPECT_EQ(outer.name, "test.outer");
  EXPECT_EQ(inner.tid, outer.tid);
  // Chrome reconstructs nesting from containment: inner must start no
  // earlier and end no later than outer.
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us);
  EXPECT_LT(inner.dur_us, outer.dur_us);
}

TEST(TraceTest, SpanArgsAreTypedAndEscaped) {
  TraceSession session;
  {
    ScopedSpan span("test.args");
    span.Arg("count", std::int64_t{42})
        .Arg("ratio", 0.5)
        .Arg("label", std::string("quote\" backslash\\ newline\n"));
  }
  ASSERT_TRUE(session.Stop().ok());

  ASSERT_EQ(session.events().size(), 1u);
  ASSERT_EQ(session.events()[0].args.size(), 3u);
  EXPECT_EQ(session.events()[0].args[0].json_value, "42");
  EXPECT_EQ(session.events()[0].args[1].json_value, "0.5");

  std::string json = session.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
}

TEST(TraceTest, ToJsonIsValidChromeTraceShape) {
  TraceSession session;
  {
    SF_TRACE_SPAN("test.one");
    SF_TRACE_SPAN("test.two");
  }
  ASSERT_TRUE(session.Stop().ok());

  std::string json = session.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  // The complete-event fields Chrome/Perfetto require.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":"), std::string::npos);
}

TEST(TraceTest, EmptySessionStillSerializes) {
  TraceSession session;
  ASSERT_TRUE(session.Stop().ok());
  EXPECT_TRUE(session.events().empty());
  EXPECT_TRUE(JsonChecker(session.ToJson()).Valid());
}

TEST(TraceTest, SessionWritesFile) {
  std::string path = testing::TempDir() + "/spacefusion_session.trace.json";
  {
    TraceSession session(path);
    SF_TRACE_SPAN("test.file_span");
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string json = buffer.str();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("test.file_span"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceTest, EnvVariableActivatesTracing) {
  std::string path = testing::TempDir() + "/spacefusion_env.trace.json";
  ASSERT_EQ(setenv("SPACEFUSION_TRACE", path.c_str(), /*overwrite=*/1), 0);
  ASSERT_TRUE(StartTraceFromEnv());
  EXPECT_TRUE(TracingEnabled());
  {
    SF_TRACE_SPAN("test.env_span");
  }
  ASSERT_TRUE(FlushEnvTrace().ok());
  EXPECT_FALSE(TracingEnabled());
  ASSERT_EQ(unsetenv("SPACEFUSION_TRACE"), 0);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(JsonChecker(buffer.str()).Valid());
  EXPECT_NE(buffer.str().find("test.env_span"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceTest, EnvActivationIgnoredWhenUnset) {
  unsetenv("SPACEFUSION_TRACE");
  EXPECT_FALSE(StartTraceFromEnv());
  EXPECT_TRUE(FlushEnvTrace().ok());  // nothing active: no-op
}

TEST(TraceTest, SpansFromMultipleThreadsGetDistinctTids) {
  TraceSession session;
  std::thread t1([] { SF_TRACE_SPAN("test.thread"); });
  std::thread t2([] { SF_TRACE_SPAN("test.thread"); });
  t1.join();
  t2.join();
  ASSERT_TRUE(session.Stop().ok());
  ASSERT_EQ(session.events().size(), 2u);
  EXPECT_NE(session.events()[0].tid, session.events()[1].tid);
}

// ---------------------------------------------------------------------------
// Metrics

TEST(MetricsTest, CounterArithmetic) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0);
}

TEST(MetricsTest, CounterIsThreadSafe) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIncrements; ++i) {
        counter.Increment();
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(counter.value(), kThreads * kIncrements);
}

TEST(MetricsTest, GaugeHoldsLastValue) {
  Gauge gauge;
  gauge.Set(0.25);
  gauge.Set(0.75);
  EXPECT_DOUBLE_EQ(gauge.value(), 0.75);
}

TEST(MetricsTest, HistogramArithmetic) {
  Histogram histogram;
  histogram.Observe(1.0);
  histogram.Observe(3.0);
  histogram.Observe(100.0);
  HistogramStats stats = histogram.stats();
  EXPECT_EQ(stats.count, 3);
  EXPECT_DOUBLE_EQ(stats.sum, 104.0);
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.max, 100.0);
  EXPECT_NEAR(stats.mean(), 104.0 / 3.0, 1e-12);

  // Bucket bounds are 4^i: 1.0 -> bucket 0, 3.0 -> bucket 1 (<=4),
  // 100.0 -> bucket 4 (<=256).
  ASSERT_EQ(stats.bucket_counts.size(), static_cast<size_t>(Histogram::kNumBuckets));
  EXPECT_EQ(stats.bucket_counts[0], 1);
  EXPECT_EQ(stats.bucket_counts[1], 1);
  EXPECT_EQ(stats.bucket_counts[4], 1);
  std::int64_t total = 0;
  for (std::int64_t b : stats.bucket_counts) {
    total += b;
  }
  EXPECT_EQ(total, stats.count);
}

TEST(MetricsTest, HistogramOverflowBucket) {
  Histogram histogram;
  histogram.Observe(1e12);  // beyond the largest finite bound
  HistogramStats stats = histogram.stats();
  EXPECT_EQ(stats.bucket_counts.back(), 1);
}

TEST(MetricsTest, EmptyHistogramStats) {
  Histogram histogram;
  HistogramStats stats = histogram.stats();
  EXPECT_EQ(stats.count, 0);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.bucket_counts.size(), static_cast<size_t>(Histogram::kNumBuckets));
}

TEST(MetricsTest, RegistryFindsSameMetricByName) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& a = registry.GetCounter("obs_test.same_counter");
  Counter& b = registry.GetCounter("obs_test.same_counter");
  EXPECT_EQ(&a, &b);
  a.Increment(7);
  EXPECT_EQ(b.value(), 7);
  a.Reset();
}

TEST(MetricsTest, ResetZeroesInPlaceKeepingReferencesValid) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& counter = registry.GetCounter("obs_test.reset_counter");
  Gauge& gauge = registry.GetGauge("obs_test.reset_gauge");
  Histogram& histogram = registry.GetHistogram("obs_test.reset_histogram");
  counter.Increment(5);
  gauge.Set(2.5);
  histogram.Observe(1.0);

  registry.Reset();

  // The SF_COUNTER_ADD-style cached references must still be the live
  // objects after Reset.
  EXPECT_EQ(counter.value(), 0);
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  EXPECT_EQ(histogram.stats().count, 0);
  counter.Increment();
  EXPECT_EQ(registry.Snapshot().counter("obs_test.reset_counter"), 1);
  counter.Reset();
}

TEST(MetricsTest, SnapshotJsonIsValid) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("obs_test.snap_counter").Increment(3);
  registry.GetGauge("obs_test.snap_gauge").Set(0.5);
  registry.GetHistogram("obs_test.snap_histogram").Observe(2.0);

  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counter("obs_test.snap_counter"), 3);
  EXPECT_DOUBLE_EQ(snapshot.gauge("obs_test.snap_gauge"), 0.5);
  EXPECT_EQ(snapshot.counter("obs_test.does_not_exist"), 0);

  std::string json = snapshot.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"obs_test.snap_counter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.snap_histogram\""), std::string::npos);
}

TEST(MetricsTest, MacrosRecordIntoGlobalRegistry) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  std::int64_t before = registry.Snapshot().counter("obs_test.macro_counter");
  SF_COUNTER_ADD("obs_test.macro_counter", 2);
  SF_GAUGE_SET("obs_test.macro_gauge", 9.0);
  SF_HISTOGRAM_OBSERVE("obs_test.macro_histogram", 5.0);
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counter("obs_test.macro_counter"), before + 2);
  EXPECT_DOUBLE_EQ(snapshot.gauge("obs_test.macro_gauge"), 9.0);
  EXPECT_GE(snapshot.histograms.at("obs_test.macro_histogram").count, 1);
}

// ---------------------------------------------------------------------------
// Histogram quantiles

TEST(MetricsTest, QuantileOfEmptyHistogramIsZero) {
  Histogram histogram;
  HistogramStats stats = histogram.stats();
  EXPECT_DOUBLE_EQ(stats.p50(), 0.0);
  EXPECT_DOUBLE_EQ(stats.p95(), 0.0);
  EXPECT_DOUBLE_EQ(stats.p99(), 0.0);
  EXPECT_DOUBLE_EQ(stats.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(stats.quantile(1.0), 0.0);
}

TEST(MetricsTest, QuantileOfSingleSampleIsExact) {
  Histogram histogram;
  histogram.Observe(7.5);
  HistogramStats stats = histogram.stats();
  EXPECT_DOUBLE_EQ(stats.quantile(0.0), 7.5);
  EXPECT_DOUBLE_EQ(stats.p50(), 7.5);
  EXPECT_DOUBLE_EQ(stats.p99(), 7.5);
  EXPECT_DOUBLE_EQ(stats.quantile(1.0), 7.5);
}

TEST(MetricsTest, QuantilesAreOrderedAndClampedToObservedRange) {
  Histogram histogram;
  for (double v : {1.0, 2.0, 3.0, 5.0, 10.0, 50.0, 200.0, 900.0}) {
    histogram.Observe(v);
  }
  HistogramStats stats = histogram.stats();
  EXPECT_LE(stats.p50(), stats.p95());
  EXPECT_LE(stats.p95(), stats.p99());
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    double value = stats.quantile(q);
    EXPECT_GE(value, stats.min) << "q=" << q;
    EXPECT_LE(value, stats.max) << "q=" << q;
  }
  // Out-of-range q is clamped, not undefined.
  EXPECT_DOUBLE_EQ(stats.quantile(-1.0), stats.quantile(0.0));
  EXPECT_DOUBLE_EQ(stats.quantile(2.0), stats.quantile(1.0));
}

TEST(MetricsTest, HistogramRejectsNonFiniteObservations) {
  Histogram histogram;
  histogram.Observe(std::numeric_limits<double>::quiet_NaN());
  histogram.Observe(std::numeric_limits<double>::infinity());
  histogram.Observe(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(histogram.stats().count, 0);

  histogram.Observe(2.0);
  histogram.Observe(std::numeric_limits<double>::quiet_NaN());
  HistogramStats stats = histogram.stats();
  EXPECT_EQ(stats.count, 1);
  EXPECT_DOUBLE_EQ(stats.sum, 2.0);
  EXPECT_FALSE(std::isnan(stats.p99()));
}

// ---------------------------------------------------------------------------
// OpenMetrics exposition

TEST(OpenMetricsTest, EmptySnapshotRendersJustTheTerminator) {
  MetricsSnapshot empty;
  EXPECT_EQ(RenderOpenMetrics(empty), "# EOF\n");
}

TEST(OpenMetricsTest, CountersGaugesAndHistogramsRender) {
  MetricsSnapshot snapshot;
  snapshot.counters["engine.cache.hits"] = 3;
  snapshot.gauges["sim.l2_hit_rate"] = 0.5;
  Histogram histogram;
  histogram.Observe(2.0);
  histogram.Observe(100.0);
  snapshot.histograms["pass.Tune.ms"] = histogram.stats();

  std::string text = RenderOpenMetrics(snapshot);
  // Names sanitized to [a-zA-Z0-9_:]; counters gain the _total suffix.
  EXPECT_NE(text.find("# TYPE engine_cache_hits counter"), std::string::npos) << text;
  EXPECT_NE(text.find("engine_cache_hits_total 3"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE sim_l2_hit_rate gauge"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE pass_Tune_ms histogram"), std::string::npos) << text;
  // Cumulative buckets with a final +Inf bound, plus _sum and _count.
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos) << text;
  EXPECT_NE(text.find("pass_Tune_ms_sum"), std::string::npos) << text;
  EXPECT_NE(text.find("pass_Tune_ms_count 2"), std::string::npos) << text;
  // Document terminator is last.
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

TEST(MetricsTest, SnapshotToTextListsEveryMetricOnce) {
  MetricsRegistry::Global().Reset();
  MetricsRegistry::Global().GetCounter("obs_test.text_counter").Increment(4);
  MetricsRegistry::Global().GetHistogram("obs_test.text_histogram").Observe(3.0);
  std::string text = MetricsRegistry::Global().Snapshot().ToText();
  EXPECT_NE(text.find("obs_test.text_counter"), std::string::npos) << text;
  EXPECT_NE(text.find("obs_test.text_histogram"), std::string::npos) << text;
  EXPECT_NE(text.find("p99="), std::string::npos) << text;
  MetricsRegistry::Global().Reset();
}

// ---------------------------------------------------------------------------
// CompileReport serialization

CompileReport FullyPopulatedReport() {
  CompileReport report;
  report.request_id = "req-000007";
  report.model = "Bert";
  report.graph_fingerprint = 0xDEADBEEFCAFEF00DULL;  // exceeds int53: string round-trip
  report.options_digest = 0xFFFFFFFFFFFFFFFFULL;
  report.outcome = "cold";
  report.status_message = "";
  report.cache_collision = true;
  report.wall_ms = 12.5;
  report.passes = {{"BuildSmg", 1.25, 1.0}, {"Tune", 8.0, 31.5}};
  report.configs_enumerated = 400;
  report.configs_screened = 100;
  report.configs_admitted = 25;
  report.tuning_seconds = 1.75;
  report.verifier_errors = 1;
  report.verifier_warnings = 2;
  report.diagnostics = {{"SFV0103", "error", "SFV0103 [error] graph(m): shape mismatch"}};
  report.kernels = 3;
  report.smem_bytes = 49152;
  report.reg_bytes = 65536;
  report.modeled_time_us = 321.5;
  return report;
}

// FullyPopulatedReport() as an older build wrote it: same schema_version,
// plus a non-zero "jit" block (from an engine that still prewarmed JIT
// kernels) and a non-zero "measured_speedup" (from fig_wallclock).
constexpr char kOlderReport[] =
    R"({"schema_version":1,"request_id":"req-000007","model":"Bert",)"
    R"("graph_fingerprint":"16045690984503111693","options_digest":"18446744073709551615",)"
    R"("outcome":"cold","status_message":"","cache_collision":true,"wall_ms":12.5,)"
    R"("passes":[{"pass":"BuildSmg","wall_ms":1.25,"cpu_ms":1},)"
    R"({"pass":"Tune","wall_ms":8,"cpu_ms":31.5}],)"
    R"("tuning":{"configs_enumerated":400,"configs_screened":100,"configs_admitted":25,)"
    R"("tuning_seconds":1.75},"verifier":{"errors":1,"warnings":2,"diagnostics":)"
    R"([{"code":"SFV0103","severity":"error",)"
    R"("message":"SFV0103 [error] graph(m): shape mismatch"}]},)"
    R"("memory":{"kernels":3,"smem_bytes":49152,"reg_bytes":65536},)"
    R"("jit":{"kernels_built":2,"kernels_cached":1,"build_ms":480.25},)"
    R"("modeled_time_us":321.5,"shape":"","bucket":"","bucket_hit":false,)"
    R"("transfer_seeded":0,"measured_speedup":1.25})";

TEST(CompileReportTest, JsonRoundTripPreservesEveryField) {
  CompileReport report = FullyPopulatedReport();
  std::string json = report.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_EQ(json.find("\"jit\""), std::string::npos) << json;
  EXPECT_EQ(json.find("measured_speedup"), std::string::npos) << json;

  // This build's output, and a saved report whose "jit" block and
  // "measured_speedup" are ignored.
  for (const std::string& input : {json, std::string(kOlderReport)}) {
    StatusOr<CompileReport> restored = CompileReport::FromJson(input);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    const CompileReport& r = restored.value();
    EXPECT_EQ(r.ToJson(), json);
    EXPECT_EQ(r.request_id, report.request_id);
    EXPECT_EQ(r.model, report.model);
    EXPECT_EQ(r.graph_fingerprint, report.graph_fingerprint);
    EXPECT_EQ(r.options_digest, report.options_digest);
    EXPECT_EQ(r.outcome, report.outcome);
    EXPECT_EQ(r.status_message, report.status_message);
    EXPECT_EQ(r.cache_collision, report.cache_collision);
    EXPECT_DOUBLE_EQ(r.wall_ms, report.wall_ms);
    ASSERT_EQ(r.passes.size(), report.passes.size());
    for (size_t i = 0; i < r.passes.size(); ++i) {
      EXPECT_EQ(r.passes[i].pass, report.passes[i].pass);
      EXPECT_DOUBLE_EQ(r.passes[i].wall_ms, report.passes[i].wall_ms);
      EXPECT_DOUBLE_EQ(r.passes[i].cpu_ms, report.passes[i].cpu_ms);
    }
    EXPECT_EQ(r.configs_enumerated, report.configs_enumerated);
    EXPECT_EQ(r.configs_screened, report.configs_screened);
    EXPECT_EQ(r.configs_admitted, report.configs_admitted);
    EXPECT_DOUBLE_EQ(r.tuning_seconds, report.tuning_seconds);
    EXPECT_EQ(r.verifier_errors, report.verifier_errors);
    EXPECT_EQ(r.verifier_warnings, report.verifier_warnings);
    ASSERT_EQ(r.diagnostics.size(), 1u);
    EXPECT_EQ(r.diagnostics[0].code, "SFV0103");
    EXPECT_EQ(r.diagnostics[0].severity, "error");
    EXPECT_EQ(r.diagnostics[0].message, report.diagnostics[0].message);
    EXPECT_EQ(r.kernels, report.kernels);
    EXPECT_EQ(r.smem_bytes, report.smem_bytes);
    EXPECT_EQ(r.reg_bytes, report.reg_bytes);
    EXPECT_DOUBLE_EQ(r.modeled_time_us, report.modeled_time_us);
    EXPECT_DOUBLE_EQ(r.PassWallMs("Tune"), 8.0);
    EXPECT_DOUBLE_EQ(r.PassWallMs("NoSuchPass"), 0.0);
  }
}

TEST(CompileReportTest, MergeFoldsSubprogramReports) {
  CompileReport model;
  model.request_id = "req-000001";
  model.model = "Bert";
  model.Merge(FullyPopulatedReport());

  CompileReport second;
  second.request_id = "req-000009";
  second.passes = {{"Tune", 2.0, 0.5}, {"Analyze", 0.25, 0.25}};
  second.configs_enumerated = 10;
  second.configs_screened = 5;
  second.configs_admitted = 2;
  second.tuning_seconds = 0.25;
  second.verifier_warnings = 1;
  second.diagnostics = {{"SFV0108", "warning", "SFV0108 [warning] graph(m): dtype drift"}};
  second.kernels = 2;
  second.smem_bytes = 1024;     // below the first report's maximum
  second.reg_bytes = 131072;    // above it
  second.transfer_seeded = 3;
  model.Merge(second);

  // Identity fields stay the caller's.
  EXPECT_EQ(model.request_id, "req-000001");
  EXPECT_EQ(model.model, "Bert");
  EXPECT_TRUE(model.cache_collision);
  // Passes summed by name, first-seen order kept.
  ASSERT_EQ(model.passes.size(), 3u);
  EXPECT_EQ(model.passes[0].pass, "BuildSmg");
  EXPECT_DOUBLE_EQ(model.passes[0].wall_ms, 1.25);
  EXPECT_EQ(model.passes[1].pass, "Tune");
  EXPECT_DOUBLE_EQ(model.passes[1].wall_ms, 10.0);
  EXPECT_DOUBLE_EQ(model.passes[1].cpu_ms, 32.0);
  EXPECT_EQ(model.passes[2].pass, "Analyze");
  // Funnel and counts added, memory maxima kept.
  EXPECT_EQ(model.configs_enumerated, 410);
  EXPECT_EQ(model.configs_screened, 105);
  EXPECT_EQ(model.configs_admitted, 27);
  EXPECT_DOUBLE_EQ(model.tuning_seconds, 2.0);
  EXPECT_EQ(model.kernels, 5);
  EXPECT_EQ(model.smem_bytes, 49152);
  EXPECT_EQ(model.reg_bytes, 131072);
  EXPECT_EQ(model.transfer_seeded, 3);
  // Diagnostics concatenated in merge order.
  EXPECT_EQ(model.verifier_errors, 1);
  EXPECT_EQ(model.verifier_warnings, 3);
  ASSERT_EQ(model.diagnostics.size(), 2u);
  EXPECT_EQ(model.diagnostics[0].code, "SFV0103");
  EXPECT_EQ(model.diagnostics[1].code, "SFV0108");
  EXPECT_EQ(model.diagnostics[1].severity, "warning");
}

TEST(CompileReportTest, FromJsonRejectsNewerSchemaAndGarbage) {
  std::string json = FullyPopulatedReport().ToJson();
  std::string newer = json;
  size_t pos = newer.find("\"schema_version\":1");
  ASSERT_NE(pos, std::string::npos) << json;
  newer.replace(pos, std::string("\"schema_version\":1").size(), "\"schema_version\":999");
  EXPECT_FALSE(CompileReport::FromJson(newer).ok());
  EXPECT_FALSE(CompileReport::FromJson("not json at all").ok());
  EXPECT_FALSE(CompileReport::FromJson("[1,2,3]").ok());
}

TEST(CompileReportTest, DirectoryReportSinkWritesOneFilePerReport) {
  std::string dir = testing::TempDir() + "/sf_report_sink";
  std::filesystem::remove_all(dir);
  DirectoryReportSink sink(dir);
  CompileReport report = FullyPopulatedReport();
  sink.Emit(report);

  std::ifstream in(dir + "/req-000007.report.json");
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  StatusOr<CompileReport> restored = CompileReport::FromJson(buffer.str());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().graph_fingerprint, report.graph_fingerprint);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// sf-stats aggregation and regression diffing

TEST(StatsTest, WallClockKeyDetection) {
  EXPECT_TRUE(IsWallClockKey("bert/req-000001/wall/compile_ms"));
  EXPECT_TRUE(IsWallClockKey("wall/total_ms"));
  EXPECT_TRUE(IsWallClockKey("bert/wall/pass/Tune"));
  EXPECT_FALSE(IsWallClockKey("bert/modeled_compile_s"));
  EXPECT_FALSE(IsWallClockKey("bert/wallpaper_count"));  // component match, not substring
  EXPECT_FALSE(IsWallClockKey(""));
}

std::string WriteTempReport(const std::string& name, const CompileReport& report) {
  std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << report.ToJson() << "\n";
  return path;
}

TEST(StatsTest, DiffFlagsInjectedModeledRegressionAndIgnoresWall) {
  CompileReport base = FullyPopulatedReport();
  base.outcome = "cold";
  base.tuning_seconds = 1.0;
  base.wall_ms = 10.0;

  CompileReport current = base;
  current.tuning_seconds = 1.5;  // +50%: well past the 10% threshold
  current.wall_ms = 500.0;       // wall regression must NOT trip the default diff

  std::string base_path = WriteTempReport("sf_stats_base.report.json", base);
  std::string current_path = WriteTempReport("sf_stats_current.report.json", current);
  StatusOr<RunStats> base_run = LoadRunStats(base_path);
  StatusOr<RunStats> current_run = LoadRunStats(current_path);
  ASSERT_TRUE(base_run.ok()) << base_run.status().ToString();
  ASSERT_TRUE(current_run.ok()) << current_run.status().ToString();
  EXPECT_EQ(base_run.value().format, "report");

  DiffOptions options;
  DiffResult diff = DiffRuns(base_run.value(), current_run.value(), options);
  ASSERT_EQ(diff.regressions, 1) << RenderDiff(diff, options);
  bool found = false;
  for (const DiffEntry& entry : diff.entries) {
    if (entry.regression) {
      found = true;
      EXPECT_NE(entry.key.find("tuning_seconds"), std::string::npos) << entry.key;
      EXPECT_NEAR(entry.delta_pct, 50.0, 1e-6);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_NE(RenderDiff(diff, options).find("REGRESSION"), std::string::npos);

  // Opting into wall keys surfaces the wall regression too.
  options.include_wall = true;
  DiffResult with_wall = DiffRuns(base_run.value(), current_run.value(), options);
  EXPECT_GT(with_wall.regressions, diff.regressions);

  // Identical runs never regress, at any threshold.
  DiffResult self = DiffRuns(base_run.value(), base_run.value(), DiffOptions());
  EXPECT_EQ(self.regressions, 0);

  std::remove(base_path.c_str());
  std::remove(current_path.c_str());
}

TEST(StatsTest, ReportDirLoadsEveryReportAndSummarizes) {
  std::string dir = testing::TempDir() + "/sf_stats_dir";
  std::filesystem::remove_all(dir);
  DirectoryReportSink sink(dir);

  CompileReport cold = FullyPopulatedReport();
  CompileReport hit = FullyPopulatedReport();
  hit.request_id = "req-000008";
  hit.outcome = "cache_hit";
  CompileReport failed = FullyPopulatedReport();
  failed.request_id = "req-000009";
  failed.outcome = "error";
  failed.status_message = "invalid argument: SFV0103 ...";
  CompileReport warm = FullyPopulatedReport();
  warm.request_id = "req-000010";
  warm.outcome = "persistent_hit";
  sink.Emit(cold);
  sink.Emit(hit);
  sink.Emit(failed);
  sink.Emit(warm);

  StatusOr<RunStats> run = LoadRunStats(dir);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().format, "report_dir");
  EXPECT_EQ(run.value().reports.size(), 4u);
  EXPECT_FALSE(run.value().series.empty());

  std::string summary = RenderSummary(run.value(), /*top_n=*/3);
  EXPECT_NE(summary.find("1 cold"), std::string::npos) << summary;
  EXPECT_NE(summary.find("1 cache hit(s)"), std::string::npos) << summary;
  EXPECT_NE(summary.find("1 persistent hit(s)"), std::string::npos) << summary;
  EXPECT_NE(summary.find("1 error(s)"), std::string::npos) << summary;
  std::filesystem::remove_all(dir);
}

// The two bench documents CI diffs: BENCH_compile.json (table5_model_compile
// --json) and BENCH_exec.json (fig_wallclock --json).
TEST(StatsTest, BenchDocumentsLoadAndDiff) {
  const std::string compile_path = testing::TempDir() + "/sf_stats_bench_compile.json";
  const std::string exec_path = testing::TempDir() + "/sf_stats_bench_exec.json";
  auto write = [](const std::string& path, const std::string& text) {
    std::ofstream(path) << text;
  };
  auto compile_doc = [](int evaluated) {
    return StrCat(R"({"benchmark":"table5_model_compile","models":{"Bert":{)",
                  R"("screened":{"compile_ms":8.9,"modeled_compile_s":3.9,)",
                  R"("configs_screened":4101,"configs_evaluated":)", evaluated, "},",
                  R"("exhaustive":{"compile_ms":16.2,"modeled_compile_s":109.5,)",
                  R"("configs_screened":0,"configs_evaluated":4113},"modeled_speedup":27.5}}})");
  };
  write(compile_path, compile_doc(492));
  write(exec_path,
        R"({"bench":"fig_wallclock","workloads":{"mha":{"fused_jit_us":18567.7,)"
        R"("unfused_jit_us":19385.2,"fused_speedup":1.044},"model_Bert":{"jit_us":105640.8}},)"
        R"("jit_cache":{"kernels_built":44,"hits":228,"hit_rate":0.838,"build_time_ms":10382.5}})");

  StatusOr<RunStats> compile = LoadRunStats(compile_path);
  StatusOr<RunStats> exec = LoadRunStats(exec_path);
  ASSERT_TRUE(compile.ok()) << compile.status().ToString();
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(compile.value().format, "bench_json");
  EXPECT_EQ(exec.value().format, "exec_json");

  // Every *_us, *_ms and *speedup value is host wall-clock.
  auto ends_with = [](const std::string& key, const std::string& suffix) {
    return key.size() >= suffix.size() &&
           key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  for (const RunStats* run : {&compile.value(), &exec.value()}) {
    for (const auto& [key, value] : run->series) {
      const bool timed =
          ends_with(key, "_us") || ends_with(key, "_ms") || ends_with(key, "speedup");
      EXPECT_EQ(IsWallClockKey(key), timed) << key;
    }
  }
  EXPECT_EQ(compile.value().series.count("Bert/screened/wall/compile_ms"), 1u);
  EXPECT_EQ(compile.value().series.count("Bert/screened/configs_evaluated"), 1u);
  EXPECT_EQ(exec.value().series.count("mha/wall/fused_speedup"), 1u);
  EXPECT_EQ(exec.value().series.count("jit_cache/wall/build_time_ms"), 1u);
  EXPECT_EQ(exec.value().series.count("jit_cache/hit_rate"), 1u);

  EXPECT_EQ(DiffRuns(compile.value(), compile.value(), DiffOptions()).regressions, 0);
  EXPECT_EQ(DiffRuns(exec.value(), exec.value(), DiffOptions()).regressions, 0);

  write(compile_path, compile_doc(738));  // +50% configs evaluated
  StatusOr<RunStats> grown = LoadRunStats(compile_path);
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  DiffResult diff = DiffRuns(compile.value(), grown.value(), DiffOptions());
  ASSERT_EQ(diff.regressions, 1) << RenderDiff(diff, DiffOptions());
  EXPECT_NE(RenderDiff(diff, DiffOptions()).find("REGRESSION Bert/screened/configs_evaluated"),
            std::string::npos);
  std::remove(compile_path.c_str());
  std::remove(exec_path.c_str());
}

TEST(StatsTest, LoadRejectsMissingPath) {
  EXPECT_FALSE(LoadRunStats(testing::TempDir() + "/sf_stats_does_not_exist.json").ok());
}

// ---------------------------------------------------------------------------
// Obs state guards: Reset / TraceSession vs concurrent compiles

// MetricsRegistry::Reset and TraceSession start/stop take the exclusive side
// of the obs state lock; engine requests hold the shared side. Churning all
// three from different threads must be data-race free (the TSan CI job runs
// this test) and must never crash or deadlock.
TEST(ObsGuardTest, ResetAndTraceSessionsDuringConcurrentCompiles) {
  CompilerEngine engine{CompileOptions()};
  std::atomic<bool> stop{false};
  std::atomic<int> compiles_done{0};

  std::vector<std::thread> compilers;
  for (int t = 0; t < 2; ++t) {
    compilers.emplace_back([&engine, &compiles_done, t] {
      for (int i = 0; i < 3; ++i) {
        // Distinct shapes per iteration defeat the program cache so every
        // request runs the full pipeline under the shared lock.
        Graph g = BuildMlp(2, 64 + 16 * t + 16 * i, 64, 64);
        StatusOr<CompiledSubprogram> compiled = engine.Compile(g);
        EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
        compiles_done.fetch_add(1);
      }
    });
  }
  std::thread resetter([&stop] {
    while (!stop.load()) {
      MetricsRegistry::Global().Reset();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::thread tracer([&stop] {
    while (!stop.load()) {
      TraceSession session;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      EXPECT_TRUE(session.Stop().ok());
    }
  });

  for (std::thread& t : compilers) {
    t.join();
  }
  stop.store(true);
  resetter.join();
  tracer.join();
  EXPECT_EQ(compiles_done.load(), 6);
  MetricsRegistry::Global().Reset();
}

// ---------------------------------------------------------------------------
// End-to-end: the instrumented compiler feeds spans and metrics

TEST(ObsIntegrationTest, CompileRecordsPhaseSpansAndMetrics) {
  MetricsRegistry::Global().Reset();
  TraceSession session;

  Graph mha = BuildMha(/*batch_heads=*/4, /*seq_q=*/128, /*seq_kv=*/128, /*head_dim=*/64);
  CompilerEngine compiler{CompileOptions(AmpereA100())};
  StatusOr<CompiledSubprogram> compiled = compiler.Compile(mha);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_TRUE(session.Stop().ok());

  // The acceptance phases all appear in the trace.
  std::set<std::string> names;
  for (const TraceEvent& e : session.events()) {
    names.insert(e.name);
  }
  for (const char* required :
       {"compiler.compile", "compiler.pipeline", "slicing.resource_aware", "slicing.spatial",
        "search.enum_cfg", "tuner.measure", "compiler.lower", "sim.cost_estimate"}) {
    EXPECT_TRUE(names.count(required)) << "missing span " << required;
  }
  EXPECT_TRUE(JsonChecker(session.ToJson()).Valid());

  // CompileTimeBreakdown is pass-derived and self-consistent.
  EXPECT_GE(compiled->compile_time.slicing_ms, 0.0);
  EXPECT_GE(compiled->compile_time.enum_cfg_ms, 0.0);
  EXPECT_GT(compiled->compile_time.slicing_ms + compiled->compile_time.enum_cfg_ms, 0.0);
  EXPECT_GT(compiled->compile_time.tuning_s, 0.0);
  EXPECT_GE(compiled->compile_time.total_s(), compiled->compile_time.tuning_s);

  // And the metrics registry saw the same compile.
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.counter("compiler.subprograms_compiled"), 1);
  EXPECT_EQ(snapshot.counter("tuner.configs_tried"), compiled->tuning.configs_tried);
  EXPECT_GT(snapshot.counter("search.configs_enumerated"), 0);
  EXPECT_GT(snapshot.counter("sim.kernels_estimated"), 0);
}

TEST(ObsIntegrationTest, CompileCacheHitsAreCounted) {
  MetricsRegistry::Global().Reset();
  Graph mha = BuildMha(4, 64, 64, 64);
  CompilerEngine compiler{CompileOptions(AmpereA100())};
  ASSERT_TRUE(compiler.Compile(mha).ok());
  ASSERT_TRUE(compiler.Compile(mha).ok());  // structural-hash cache hit
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.counter("compiler.cache_misses"), 1);
  EXPECT_EQ(snapshot.counter("compiler.cache_hits"), 1);
}

}  // namespace
}  // namespace spacefusion
