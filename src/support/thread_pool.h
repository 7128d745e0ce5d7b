// Fixed-size work-queue thread pool, and the kernel pool built on it.
//
// ServeServer runs each admitted compile job on a private pool so its
// Submit never blocks on a compile. JIT kernels run their parallel loops
// through KernelParallelFor on one process-wide pool. Compilation itself
// runs on its caller's thread: a compile takes milliseconds of host work,
// and fanning it out over a pool made it slower (DESIGN.md
// "Single-threaded compilation").
#ifndef SPACEFUSION_SRC_SUPPORT_THREAD_POOL_H_
#define SPACEFUSION_SRC_SUPPORT_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "src/support/thread_annotations.h"

namespace spacefusion {

class ThreadPool {
 public:
  // Spawns exactly `workers` threads (clamped to >= 0). With zero workers
  // every Submit runs inline on the calling thread.
  explicit ThreadPool(int workers);
  // Drains the queue, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int workers() const { return static_cast<int>(threads_.size()); }

  // Enqueues `fn`; the future rethrows fn's exception on get(). Deadlock
  // guard: called from one of this pool's own workers (or with zero
  // workers), fn runs inline before Submit returns, so a task may submit
  // and wait on subtasks without consuming a queue slot it is blocking.
  std::future<void> Submit(std::function<void()> fn);

  // True on a thread owned by this pool.
  bool InPool() const;

 private:
  void WorkerLoop();

  mutable Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ SF_GUARDED_BY(mu_);
  // Immutable after construction (workers() reads it without the lock).
  std::vector<std::thread> threads_;
  bool shutdown_ SF_GUARDED_BY(mu_) = false;
};

// Runs body(ctx, begin, end) over [0, n) in contiguous static chunks and
// returns when every chunk has run: the parallel-for JIT kernels are bound
// to (CppParallelForFn). The chunks run on a process-wide pool created on
// first use, with one worker per CPU in the process's affinity mask minus
// one, while the caller runs the first chunk; with one CPU, or from a pool
// worker, everything runs inline. The pool belongs to the process, not to a
// kernel's shared object, so unloading kernels never strands its threads.
// Safe to call from several threads at once.
void KernelParallelFor(long long n, void (*body)(void* ctx, long long begin, long long end),
                       void* ctx);

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_SUPPORT_THREAD_POOL_H_
