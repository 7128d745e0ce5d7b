#include "src/obs/trace.h"

#include <cstdio>
#include <cstdlib>

#include "src/obs/metrics.h"
#include "src/support/logging.h"
#include "src/support/string_util.h"
#include "src/support/thread_annotations.h"

namespace spacefusion {

namespace {

// Global capture state. Function-local statics keep initialization order
// safe for the pre-main env bootstrap below.
struct CaptureState {
  Mutex mu;
  bool active SF_GUARDED_BY(mu) = false;  // mirrored in g_trace_active
  bool env_started SF_GUARDED_BY(mu) = false;  // session from SPACEFUSION_TRACE
  std::string env_path SF_GUARDED_BY(mu);
  std::chrono::steady_clock::time_point epoch SF_GUARDED_BY(mu);
  std::vector<TraceEvent> events SF_GUARDED_BY(mu);
};

CaptureState& State() {
  static CaptureState* state = new CaptureState();  // leaked: usable at exit
  return *state;
}

std::string EscapeJson(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  for (char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

// Starts capture into the global event store. Caller holds no locks.
bool StartCapture() {
  CaptureState& state = State();
  MutexLock lock(state.mu);
  if (state.active) {
    return false;
  }
  state.active = true;
  state.env_started = false;
  state.epoch = std::chrono::steady_clock::now();
  state.events.clear();
  obs_internal::g_trace_active.store(true, std::memory_order_relaxed);
  return true;
}

std::vector<TraceEvent> StopCapture() {
  CaptureState& state = State();
  MutexLock lock(state.mu);
  obs_internal::g_trace_active.store(false, std::memory_order_relaxed);
  state.active = false;
  state.env_started = false;
  return std::move(state.events);
}

Status WriteFile(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Internal(StrCat("cannot open trace file ", path));
  }
  size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  int rc = std::fclose(f);
  if (written != contents.size() || rc != 0) {
    return Internal(StrCat("short write to trace file ", path));
  }
  return Status::Ok();
}

// Starts (before main) and flushes (after main) the SPACEFUSION_TRACE
// session, so examples and benches need no code to participate.
struct EnvTraceBootstrap {
  EnvTraceBootstrap() { StartTraceFromEnv(); }
  ~EnvTraceBootstrap() {
    Status st = FlushEnvTrace();
    if (!st.ok()) {
      std::fprintf(stderr, "[W trace] %s\n", st.ToString().c_str());
    }
  }
} g_env_trace_bootstrap;

}  // namespace

namespace obs_internal {

std::atomic<bool> g_trace_active{false};

int CurrentThreadId() {
  static std::atomic<int> next_id{1};
  thread_local int id = next_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void RecordSpan(const char* name, const char* cat,
                std::chrono::steady_clock::time_point start,
                std::chrono::steady_clock::time_point end, std::vector<TraceArg>&& args) {
  CaptureState& state = State();
  MutexLock lock(state.mu);
  if (!state.active) {
    return;  // session stopped between the check and the lock
  }
  TraceEvent event;
  event.name = name;
  event.cat = cat;
  event.ts_us = std::chrono::duration<double, std::micro>(start - state.epoch).count();
  event.dur_us = std::chrono::duration<double, std::micro>(end - start).count();
  event.tid = CurrentThreadId();
  event.args = std::move(args);
  state.events.push_back(std::move(event));
}

}  // namespace obs_internal

ScopedSpan& ScopedSpan::Arg(const char* key, std::int64_t value) {
  if (active_) {
    args_.push_back({key, StrCat(value)});
  }
  return *this;
}

ScopedSpan& ScopedSpan::Arg(const char* key, double value) {
  if (active_) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    args_.push_back({key, buf});
  }
  return *this;
}

ScopedSpan& ScopedSpan::Arg(const char* key, const std::string& value) {
  if (active_) {
    args_.push_back({key, StrCat("\"", EscapeJson(value), "\"")});
  }
  return *this;
}

TraceSession::TraceSession(std::string path) : path_(std::move(path)) {
  // Exclusive against ObsCompileLock holders: starting capture mid-compile
  // would record a torn prefix of that request's spans.
  WriterMutexLock obs_lock(obs_internal::ObsStateMutex());
  SF_CHECK(StartCapture()) << "a trace session is already active";
}

TraceSession::~TraceSession() {
  Status st = Stop();
  if (!st.ok()) {
    SF_LOG(Warning) << st.ToString();
  }
}

Status TraceSession::Stop() {
  if (stopped_) {
    return Status::Ok();
  }
  stopped_ = true;
  {
    // Wait out in-flight compiles so a session never ends with half of a
    // request's spans captured and the rest dropped.
    WriterMutexLock obs_lock(obs_internal::ObsStateMutex());
    events_ = StopCapture();
  }
  if (path_.empty()) {
    return Status::Ok();
  }
  return WriteFile(path_, ToJson());
}

std::string TraceSession::ToJson() const { return TraceEventsToJson(events_); }

std::string TraceEventsToJson(const std::vector<TraceEvent>& events) {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) {
      out += ",\n";
    }
    first = false;
    out += StrCat("{\"name\":\"", EscapeJson(e.name), "\",\"cat\":\"", EscapeJson(e.cat),
                  "\",\"ph\":\"X\",\"ts\":", FormatDouble(e.ts_us),
                  ",\"dur\":", FormatDouble(e.dur_us), ",\"pid\":1,\"tid\":", e.tid);
    if (!e.args.empty()) {
      out += ",\"args\":{";
      for (size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) {
          out += ",";
        }
        out += StrCat("\"", EscapeJson(e.args[i].key), "\":", e.args[i].json_value);
      }
      out += "}";
    }
    out += "}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool StartTraceFromEnv() {
  const char* path = std::getenv("SPACEFUSION_TRACE");
  if (path == nullptr || path[0] == '\0') {
    return false;
  }
  if (!StartCapture()) {
    return false;
  }
  CaptureState& state = State();
  MutexLock lock(state.mu);
  state.env_started = true;
  state.env_path = path;
  return true;
}

Status FlushEnvTrace() {
  std::string path;
  {
    CaptureState& state = State();
    MutexLock lock(state.mu);
    if (!state.active || !state.env_started) {
      return Status::Ok();
    }
    path = state.env_path;
  }
  std::vector<TraceEvent> events = StopCapture();
  return WriteFile(path, TraceEventsToJson(events));
}

}  // namespace spacefusion
