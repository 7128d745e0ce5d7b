#include "src/serve/server.h"

#include <algorithm>
#include <utility>

#include "src/obs/metrics.h"
#include "src/support/string_util.h"

namespace spacefusion {

namespace {

void Mix(std::uint64_t* h, std::uint64_t v) {
  *h ^= v;
  *h *= 1099511628211ULL;  // FNV prime
}

}  // namespace

ServeServer::ServeServer(ServeServerOptions options) : options_(std::move(options)) {
  EngineOptions engine_options(options_.compile);
  engine_options.cache_dir = options_.cache_dir;
  engine_ = std::make_unique<CompilerEngine>(std::move(engine_options));
  paused_ = options_.start_paused;
  pool_ = std::make_unique<ThreadPool>(std::max(1, options_.workers));
}

ServeServer::~ServeServer() {
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
    paused_ = false;
  }
  pause_cv_.NotifyAll();
  // ThreadPool's destructor drains its queue before joining, so every
  // admitted job still runs and every promise is fulfilled.
  pool_.reset();
}

void ServeServer::Pause() {
  MutexLock lock(mu_);
  paused_ = true;
}

void ServeServer::Resume() {
  {
    MutexLock lock(mu_);
    paused_ = false;
  }
  pause_cv_.NotifyAll();
}

ServeServer::Stats ServeServer::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

std::int64_t ServeServer::inflight_jobs() const {
  MutexLock lock(mu_);
  return static_cast<std::int64_t>(jobs_.size());
}

std::int64_t ServeServer::tracked_clients() const {
  MutexLock lock(mu_);
  return static_cast<std::int64_t>(client_inflight_.size());
}

ServeResponse ServeServer::RejectedResponse(const ServeRequest& request, StatusCode code,
                                            const std::string& detail) const {
  ServeResponse response;
  response.id = request.id;
  response.status = StatusCodeName(code);
  response.error = detail;
  response.model = request.model;
  return response;
}

ServeResponse ServeServer::Handle(ServeRequest request) {
  return Submit(std::move(request)).get();
}

std::future<ServeResponse> ServeServer::Submit(ServeRequest request) {
  std::promise<ServeResponse> promise;
  std::future<ServeResponse> future = promise.get_future();
  SF_COUNTER_ADD("serve.requests", 1);

  StatusOr<ModelKind> kind = ModelKindFromName(request.model);
  StatusOr<GpuArch> arch = ArchFromName(request.arch);
  if (!kind.ok() || !arch.ok()) {
    const Status& bad = !kind.ok() ? kind.status() : arch.status();
    {
      MutexLock lock(mu_);
      ++stats_.submitted;
      ++stats_.failed;
    }
    SF_COUNTER_ADD("serve.failed", 1);
    promise.set_value(RejectedResponse(request, bad.code(), bad.message()));
    return future;
  }

  CompileOptions job_options = options_.compile;
  job_options.arch = std::move(arch).value();
  const ShapeKey shape = request.shape_key();
  const ShapeKey bucket = BucketingPolicy::FromEnv().BucketFor(shape);

  // Coalescing key = what the engine's shape-bucketed cache is keyed by:
  // model kind, the *bucket* the shape rounds to, and the options digest.
  // Two requests whose shapes land in the same bucket would compile the
  // same programs (the bucketed factory is structurally deterministic), so
  // they share one job, whatever their exact shapes, ids or clients.
  std::uint64_t key = 1469598103934665603ULL;
  Mix(&key, static_cast<std::uint64_t>(kind.value()));
  Mix(&key, static_cast<std::uint64_t>(bucket.batch));
  Mix(&key, static_cast<std::uint64_t>(bucket.seq));
  Mix(&key, CompileOptionsDigest(job_options));

  Waiter waiter;
  waiter.promise = std::move(promise);
  waiter.request_id = request.id;
  waiter.client = request.client;
  waiter.shape = shape.Label();
  waiter.enqueued = Clock::now();
  if (request.deadline_ms > 0) {
    waiter.has_deadline = true;
    waiter.deadline = waiter.enqueued + std::chrono::milliseconds(request.deadline_ms);
  }

  std::shared_ptr<Job> job_to_run;
  const char* reject_metric = nullptr;
  ServeResponse rejection;
  {
    MutexLock lock(mu_);
    ++stats_.submitted;
    // Quota is read without inserting: client_inflight_[] here used to plant
    // a zero entry for a first-time client even when the request was then
    // rejected on the queue-full path below, and nothing ever erased it —
    // the map grew by one dead entry per distinct rejected client. The
    // count is incremented only on the two admission paths.
    auto inflight_it = client_inflight_.find(request.client);
    const int inflight = inflight_it == client_inflight_.end() ? 0 : inflight_it->second;
    if (inflight >= options_.per_client_inflight) {
      ++stats_.rejected_quota;
      reject_metric = "serve.rejected_quota";
      rejection = RejectedResponse(
          request, StatusCode::kResourceExhausted,
          StrCat("client \"", request.client, "\" has ", inflight,
                 " request(s) in flight (limit ", options_.per_client_inflight, ")"));
    } else if (auto it = jobs_.find(key); it != jobs_.end()) {
      waiter.coalesced = true;
      ++client_inflight_[request.client];
      ++stats_.coalesced;
      SF_COUNTER_ADD("serve.coalesced", 1);
      it->second->waiters.push_back(std::move(waiter));
      return future;
    } else if (static_cast<int>(jobs_.size()) >= options_.max_inflight_jobs) {
      ++stats_.rejected_queue;
      reject_metric = "serve.rejected_queue";
      rejection = RejectedResponse(
          request, StatusCode::kResourceExhausted,
          StrCat("admission queue full: ", jobs_.size(), " job(s) in flight (limit ",
                 options_.max_inflight_jobs, ")"));
    } else {
      auto job = std::make_shared<Job>();
      job->key = key;
      job->kind = kind.value();
      job->shape = shape;
      job->options = std::move(job_options);
      job->model_name = GetModelConfig(kind.value(), request.batch, request.seq).name;
      ++client_inflight_[request.client];
      job->waiters.push_back(std::move(waiter));
      jobs_.emplace(key, job);
      job_to_run = std::move(job);
    }
  }
  if (reject_metric != nullptr) {
    SF_COUNTER_ADD(reject_metric, 1);
    waiter.promise.set_value(std::move(rejection));
    return future;
  }
  pool_->Submit([this, job_to_run] { RunJob(job_to_run); });
  return future;
}

void ServeServer::Deliver(Waiter* waiter, ServeResponse response) {
  {
    MutexLock lock(mu_);
    auto it = client_inflight_.find(waiter->client);
    if (it != client_inflight_.end() && --it->second <= 0) {
      client_inflight_.erase(it);
    }
    if (response.ok()) {
      ++stats_.completed;
    } else if (response.status == StatusCodeName(StatusCode::kDeadlineExceeded)) {
      ++stats_.deadline_expired;
    } else {
      ++stats_.failed;
    }
  }
  if (response.ok()) {
    SF_COUNTER_ADD("serve.completed", 1);
    SF_HISTOGRAM_OBSERVE("serve.wall_ms", response.wall_ms);
  } else if (response.status == StatusCodeName(StatusCode::kDeadlineExceeded)) {
    SF_COUNTER_ADD("serve.deadline_exceeded", 1);
  } else {
    SF_COUNTER_ADD("serve.failed", 1);
  }
  waiter->promise.set_value(std::move(response));
}

void ServeServer::RunJob(const std::shared_ptr<Job>& job) {
  std::vector<Waiter> expired;
  bool skip = false;
  {
    MutexLock lock(mu_);
    while (paused_ && !shutting_down_) {
      pause_cv_.Wait(mu_);
    }
    const Clock::time_point now = Clock::now();
    std::vector<Waiter>& waiters = job->waiters;
    for (auto it = waiters.begin(); it != waiters.end();) {
      if (it->has_deadline && it->deadline <= now) {
        expired.push_back(std::move(*it));
        it = waiters.erase(it);
      } else {
        ++it;
      }
    }
    if (waiters.empty()) {
      // Every requester already expired: skip the compile entirely. Nothing
      // reached the engine, so no cache (memory or disk) saw this request.
      jobs_.erase(job->key);
      ++stats_.compile_skipped;
      skip = true;
    } else {
      ++stats_.compiles;
    }
  }
  for (Waiter& waiter : expired) {
    Deliver(&waiter,
            RejectedResponse(ServeRequest{waiter.request_id, waiter.client, job->model_name},
                             StatusCode::kDeadlineExceeded,
                             "deadline expired before the compile started"));
  }
  if (skip) {
    SF_COUNTER_ADD("serve.compile_skipped", 1);
    return;
  }
  SF_COUNTER_ADD("serve.compiles", 1);

  StatusOr<ShapeCompileResult> compiled =
      engine_->CompileModelForShape(job->kind, job->shape, job->options);

  std::vector<Waiter> waiters;
  {
    MutexLock lock(mu_);
    jobs_.erase(job->key);
    waiters = std::move(job->waiters);
  }
  const Clock::time_point done = Clock::now();
  for (Waiter& waiter : waiters) {
    if (waiter.has_deadline && waiter.deadline <= done) {
      // The compile finished, its result is cached for the next request —
      // only this delivery expired.
      Deliver(&waiter,
              RejectedResponse(ServeRequest{waiter.request_id, waiter.client, job->model_name},
                               StatusCode::kDeadlineExceeded,
                               "deadline expired while the compile ran"));
      continue;
    }
    ServeResponse response;
    response.id = waiter.request_id;
    response.model = job->model_name;
    if (!compiled.ok()) {
      response.status = StatusCodeName(compiled.status().code());
      response.error = compiled.status().ToString();
    } else {
      const CompiledModel& result = compiled->compiled;
      response.outcome = result.report.outcome;
      response.coalesced = waiter.coalesced;
      response.unique_subprograms = static_cast<int>(result.unique_subprograms.size());
      response.cache_hits = result.cache_hits;
      response.tuning_seconds = result.compile_time.tuning_s;
      // The estimate is of the *bucket's* program — what actually executes
      // for every shape routed here.
      response.estimate = result.total;
      response.wall_ms =
          std::chrono::duration<double, std::milli>(done - waiter.enqueued).count();
      response.shape = waiter.shape;
      response.bucket = compiled->bucketed.bucket_key.Label();
      response.bucket_hit = compiled->bucket_hit;
      response.transfer_seeded = compiled->transfer_seeded;
    }
    Deliver(&waiter, std::move(response));
  }
}

}  // namespace spacefusion
