// Compiler-wide scoped-span tracing with Chrome trace-event export.
//
// Every phase of the compile-and-estimate path is wrapped in an
// SF_TRACE_SPAN("phase.name") RAII span. Spans nest naturally (they are
// serialized as complete "X" events with start + duration, which
// chrome://tracing and Perfetto stack by timestamp) and may carry typed
// key/value args. Capture is off by default and the disabled path is one
// relaxed atomic load, so instrumentation can stay in hot code.
//
// Two ways to capture:
//   * SPACEFUSION_TRACE=<path> in the environment: a process-wide session
//     starts before main() and the JSON is written at exit.
//   * TraceSession session("out.json"): scoped capture; the file is written
//     when the session stops (or is destroyed). With an empty path the
//     events stay in memory for inspection (tests, custom sinks).
#ifndef SPACEFUSION_SRC_OBS_TRACE_H_
#define SPACEFUSION_SRC_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/support/status.h"

namespace spacefusion {

// One span argument, with the value already rendered as a JSON literal
// (numbers verbatim, strings escaped and quoted).
struct TraceArg {
  std::string key;
  std::string json_value;
};

// One completed span. Timestamps are microseconds relative to the start of
// the capture session.
struct TraceEvent {
  std::string name;
  std::string cat;
  double ts_us = 0.0;
  double dur_us = 0.0;
  int tid = 0;
  std::vector<TraceArg> args;
};

namespace obs_internal {

extern std::atomic<bool> g_trace_active;

void RecordSpan(const char* name, const char* cat,
                std::chrono::steady_clock::time_point start,
                std::chrono::steady_clock::time_point end, std::vector<TraceArg>&& args);

// Small dense id for the calling thread (Chrome traces want integer tids).
int CurrentThreadId();

}  // namespace obs_internal

// True while a trace session (API or SPACEFUSION_TRACE) is capturing.
inline bool TracingEnabled() {
  return obs_internal::g_trace_active.load(std::memory_order_relaxed);
}

// RAII span. Construct on the stack (normally via SF_TRACE_SPAN); the span
// covers the enclosing scope. Args attached while inactive are dropped.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* cat = "compile") {
    if (TracingEnabled()) {
      active_ = true;
      name_ = name;
      cat_ = cat;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedSpan() {
    if (active_) {
      obs_internal::RecordSpan(name_, cat_, start_, std::chrono::steady_clock::now(),
                               std::move(args_));
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ScopedSpan& Arg(const char* key, std::int64_t value);
  ScopedSpan& Arg(const char* key, int value) { return Arg(key, static_cast<std::int64_t>(value)); }
  ScopedSpan& Arg(const char* key, double value);
  ScopedSpan& Arg(const char* key, const std::string& value);
  ScopedSpan& Arg(const char* key, const char* value) { return Arg(key, std::string(value)); }

  bool active() const { return active_; }

 private:
  bool active_ = false;
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  std::chrono::steady_clock::time_point start_;
  std::vector<TraceArg> args_;
};

#define SF_OBS_CONCAT_INNER(a, b) a##b
#define SF_OBS_CONCAT(a, b) SF_OBS_CONCAT_INNER(a, b)

// Anonymous scoped span covering the rest of the enclosing scope:
//   SF_TRACE_SPAN("tuner.measure");
//   SF_TRACE_SPAN("compiler.compile", "compile");  // explicit category
#define SF_TRACE_SPAN(...) \
  ::spacefusion::ScopedSpan SF_OBS_CONCAT(sf_trace_span_, __LINE__)(__VA_ARGS__)

// Scoped capture session. Only one session (API or env) can be active at a
// time; constructing a second one aborts. Stop() (or destruction) ends the
// capture, writes Chrome trace JSON to `path` when non-empty, and makes the
// collected events available via events()/ToJson().
class TraceSession {
 public:
  explicit TraceSession(std::string path = "");
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  // Idempotent. Returns the status of the file write (Ok for in-memory
  // sessions or on success).
  Status Stop();

  // Valid after Stop(); spans are in completion order.
  const std::vector<TraceEvent>& events() const { return events_; }
  std::string ToJson() const;

 private:
  std::string path_;
  bool stopped_ = false;
  std::vector<TraceEvent> events_;
};

// Serializes completed spans as Chrome trace-event JSON (the
// {"traceEvents": [...]} object form; load in chrome://tracing or
// https://ui.perfetto.dev).
std::string TraceEventsToJson(const std::vector<TraceEvent>& events);

// Starts the process-wide session from SPACEFUSION_TRACE if the variable is
// set, non-empty, and no session is active. Called from a static
// initializer; exposed (with FlushEnvTrace) so tests can drive the env
// activation path deterministically. Returns true if a capture started.
bool StartTraceFromEnv();

// Stops the env-activated session (if any) and writes its JSON file.
// Returns the write status; Ok when no env session was active.
Status FlushEnvTrace();

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_OBS_TRACE_H_
