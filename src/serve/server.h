// ServeServer: the compilation-as-a-service core behind sf-serve.
//
// Wraps a CompilerEngine with the serving concerns an embedded compiler does
// not have:
//
//   * Admission — a bounded number of distinct compile jobs may be queued or
//     running; past it, new work is rejected with RESOURCE_EXHAUSTED rather
//     than queued without bound.
//   * Coalescing — concurrent requests for the same (model graph
//     fingerprint, options digest) share ONE compile: the first request
//     creates the job, later ones attach as waiters and are answered from
//     the same result (serve.coalesced). This is the request-level
//     counterpart of the engine's program cache: the cache dedupes across
//     time, coalescing dedupes in flight.
//   * Per-client quotas — each client (ServeRequest::client) may have a
//     bounded number of unfinished requests; past it, RESOURCE_EXHAUSTED.
//   * Deadlines — a request with deadline_ms > 0 that expires before its
//     job starts or finishes is answered DEADLINE_EXCEEDED. An expired
//     request never poisons any cache: if every waiter of a job expired
//     before it started, the compile is skipped entirely; if the compile
//     did run, its (valid) result is cached and only the delivery is
//     dropped.
//
// Responses are futures: Submit never blocks on a compile. The server owns a
// ThreadPool of `workers` threads for job execution; each job compiles on
// the worker that runs it, so at most `workers` compiles run at once.
//
// Pause/Resume gate job *starts* (running jobs finish). Tests use it to make
// admission behavior deterministic: pause, storm the server, assert
// coalescing/quota/queue decisions synchronously, resume.
#ifndef SPACEFUSION_SRC_SERVE_SERVER_H_
#define SPACEFUSION_SRC_SERVE_SERVER_H_

#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/serve/protocol.h"
#include "src/support/thread_annotations.h"
#include "src/support/thread_pool.h"

namespace spacefusion {

struct ServeServerOptions {
  // Base compile options; a request's "arch" replaces the architecture.
  CompileOptions compile;
  // Compile worker threads (clamped to >= 1; a zero-worker pool runs
  // Submit inline, which would break Submit's async contract).
  int workers = 2;
  // Max distinct compile jobs queued or running before new jobs are
  // rejected. Coalescing waiters don't count: they add no work.
  int max_inflight_jobs = 64;
  // Max unfinished requests per client (coalesced or not).
  int per_client_inflight = 8;
  // Persistent program cache directory for the wrapped engine; defaults to
  // SPACEFUSION_CACHE_DIR. Empty disables persistence.
  std::string cache_dir = CacheDirFromEnv();
  // Start with the job gate closed (tests).
  bool start_paused = false;

  ServeServerOptions() = default;
};

class ServeServer {
 public:
  struct Stats {
    std::int64_t submitted = 0;         // requests past parsing (any fate)
    std::int64_t completed = 0;         // delivered with status "ok"
    std::int64_t coalesced = 0;         // attached to an in-flight job
    std::int64_t compiles = 0;          // jobs whose compile actually ran
    std::int64_t compile_skipped = 0;   // jobs abandoned: all waiters expired
    std::int64_t rejected_quota = 0;
    std::int64_t rejected_queue = 0;
    std::int64_t deadline_expired = 0;
    std::int64_t failed = 0;            // compile errors / bad requests
  };

  explicit ServeServer(ServeServerOptions options);
  // Resumes, finishes every queued job, and delivers every response.
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  // Admits (or rejects) `request` and returns the eventual response. The
  // returned future is always fulfilled, never broken — rejections resolve
  // it immediately with a non-"ok" status.
  std::future<ServeResponse> Submit(ServeRequest request);

  // Submit + wait.
  ServeResponse Handle(ServeRequest request);

  void Pause();
  void Resume();

  Stats stats() const;
  // Jobs currently queued or running (coalesced waiters not counted).
  std::int64_t inflight_jobs() const;
  // Clients with a live per-client quota entry. Rejected or finished
  // clients are dropped from the map, so this stays bounded by the number
  // of clients that currently have work in flight.
  std::int64_t tracked_clients() const;
  CompilerEngine& engine() { return *engine_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Waiter {
    std::promise<ServeResponse> promise;
    std::string request_id;
    std::string client;
    std::string shape;  // this requester's exact shape label
    bool coalesced = false;
    bool has_deadline = false;
    Clock::time_point deadline;
    Clock::time_point enqueued;
  };

  // One bucketed compile. Coalescing is bucket-level: requests whose shapes
  // round to the same bucket (same model kind, arch, options) share one job,
  // so a mixed-shape storm compiles each bucket once.
  struct Job {
    std::uint64_t key = 0;
    ModelKind kind = ModelKind::kBert;
    ShapeKey shape;  // first requester's shape; any shape in the bucket works
    CompileOptions options;
    std::string model_name;
    std::vector<Waiter> waiters;  // guarded by the server mutex
  };

  void RunJob(const std::shared_ptr<Job>& job);
  // Decrements the owner's quota slot and fulfills the promise.
  void Deliver(Waiter* waiter, ServeResponse response);
  ServeResponse RejectedResponse(const ServeRequest& request, StatusCode code,
                                 const std::string& detail) const;

  ServeServerOptions options_;
  std::unique_ptr<CompilerEngine> engine_;

  mutable Mutex mu_;
  CondVar pause_cv_;
  bool paused_ SF_GUARDED_BY(mu_) = false;
  bool shutting_down_ SF_GUARDED_BY(mu_) = false;
  // Keyed by Job::key. Job::waiters is also guarded by mu_ (the annotation
  // lives here because the analysis cannot name an owner's mutex from
  // inside the nested struct).
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_ SF_GUARDED_BY(mu_);
  std::map<std::string, int> client_inflight_ SF_GUARDED_BY(mu_);
  Stats stats_ SF_GUARDED_BY(mu_);

  // Last: joined (and queue drained) before the members above die.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_SERVE_SERVER_H_
