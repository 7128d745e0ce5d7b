#include "src/support/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <exception>
#include <thread>
#include <vector>

#include "src/support/thread_annotations.h"

namespace spacefusion {

namespace {

using KernelBody = void (*)(void* ctx, long long begin, long long end);

// True on a kernel-pool worker: a loop started there runs inline.
thread_local bool tl_pool_worker = false;

int KernelPoolWorkers() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int cpu_count = ::sched_getaffinity(0, sizeof(cpus), &cpus) == 0
                            ? CPU_COUNT(&cpus)
                            : static_cast<int>(std::thread::hardware_concurrency());
  return std::max(cpu_count - 1, 0);
}

// One job slot shared by the workers. A caller publishes its loop into the
// slot, runs chunk 0, claims every chunk no worker has claimed yet, and
// frees the slot in the same lock hold in which it sees the last chunk
// finish. A worker reads the slot and claims its chunk in one lock hold, so
// it can never pair one loop's body with another loop's chunk: the
// counters are reset only by the next Publish, after every chunk of the
// previous loop has finished.
class KernelPool {
 public:
  explicit KernelPool(int workers) : workers_(workers) {
    threads_.reserve(static_cast<size_t>(workers));
    for (int i = 0; i < workers; ++i) {
      threads_.emplace_back([this] { WorkerLoop(); });
    }
  }

  void Run(long long n, KernelBody body, void* ctx) SF_EXCLUDES(mu_) {
    const long long chunks = std::min<long long>(n, workers_ + 1);
    if (chunks <= 1 || tl_pool_worker || !Publish(n, body, ctx, chunks)) {
      if (n > 0) {
        body(ctx, 0, n);
      }
      return;
    }
    // One wake per chunk left, and chunk 0 starts without the lock: waking
    // every worker at once, then taking the lock to start chunk 0, made the
    // caller queue behind them (about 8 us more per region of four ~10 us
    // chunks on a 4-vCPU host).
    for (long long c = 1; c < chunks; ++c) {
      work_cv_.NotifyOne();
    }
    std::exception_ptr error = RunBody(body, ctx, 0, n / chunks);
    {
      MutexLock lock(mu_);
      Finish(std::move(error));
      while (next_ < chunks_) {
        RunChunk(next_++);
      }
      while (finished_ < chunks_) {
        done_cv_.Wait(mu_);
      }
      body_ = nullptr;
      error = std::move(error_);
      error_ = nullptr;
    }
    if (error != nullptr) {
      std::rethrow_exception(error);
    }
  }

 private:
  // False when another thread's loop holds the slot.
  bool Publish(long long n, KernelBody body, void* ctx, long long chunks) SF_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (body_ != nullptr) {
      return false;
    }
    body_ = body;
    ctx_ = ctx;
    n_ = n;
    chunks_ = chunks;
    next_ = 1;  // chunk 0 is the caller's
    finished_ = 0;
    return true;
  }

  // body(ctx, begin, end); the exception it threw, if any.
  static std::exception_ptr RunBody(KernelBody body, void* ctx, long long begin, long long end) {
    try {
      body(ctx, begin, end);
    } catch (...) {
      return std::current_exception();
    }
    return nullptr;
  }

  // Runs chunk c of the slot's loop with the lock released.
  void RunChunk(long long c) SF_REQUIRES(mu_) {
    const KernelBody body = body_;
    void* const ctx = ctx_;
    const long long begin = n_ * c / chunks_;
    const long long end = n_ * (c + 1) / chunks_;
    mu_.unlock();
    std::exception_ptr error = RunBody(body, ctx, begin, end);
    mu_.lock();
    Finish(std::move(error));
  }

  // Records that a chunk returned, keeping the first exception.
  void Finish(std::exception_ptr error) SF_REQUIRES(mu_) {
    if (error != nullptr && error_ == nullptr) {
      error_ = std::move(error);
    }
    ++finished_;
  }

  void WorkerLoop() SF_EXCLUDES(mu_) {
    tl_pool_worker = true;
    MutexLock lock(mu_);
    for (;;) {
      while (body_ == nullptr || next_ >= chunks_) {
        work_cv_.Wait(mu_);
      }
      RunChunk(next_++);
      if (finished_ == chunks_) {
        done_cv_.NotifyOne();  // the caller may be waiting for this chunk
      }
    }
  }

  const int workers_;
  Mutex mu_;
  CondVar work_cv_;  // a published loop has an unclaimed chunk
  CondVar done_cv_;  // the published loop's last chunk finished
  KernelBody body_ SF_GUARDED_BY(mu_) = nullptr;  // nullptr: the slot is free
  void* ctx_ SF_GUARDED_BY(mu_) = nullptr;
  long long n_ SF_GUARDED_BY(mu_) = 0;
  long long chunks_ SF_GUARDED_BY(mu_) = 0;
  long long next_ SF_GUARDED_BY(mu_) = 0;      // next unclaimed chunk
  long long finished_ SF_GUARDED_BY(mu_) = 0;  // chunks that have returned
  std::exception_ptr error_ SF_GUARDED_BY(mu_);  // first exception a chunk threw
  // Last: the workers start after the state they use.
  std::vector<std::thread> threads_;
};

}  // namespace

void KernelParallelFor(long long n, KernelBody body, void* ctx) {
  // Never destroyed: a kernel running during static destruction still
  // finds its workers, and they stay parked until the process exits.
  static KernelPool* const pool = new KernelPool(KernelPoolWorkers());
  pool->Run(n, body, ctx);
}

}  // namespace spacefusion
