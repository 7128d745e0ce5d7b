#include "src/support/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <memory>
#include <new>

namespace spacefusion {

namespace {

// Pool the current thread belongs to (nullptr on non-worker threads); the
// nested-submit deadlock guard keys off it.
thread_local const ThreadPool* tl_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(int workers) {
  if (workers < 0) {
    workers = 0;
  }
  threads_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void ThreadPool::WorkerLoop() {
  tl_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && queue_.empty()) {
        cv_.Wait(mu_);
      }
      if (queue_.empty()) {
        return;  // shutdown with a drained queue
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

bool ThreadPool::InPool() const { return tl_pool == this; }

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  auto task = std::make_shared<std::packaged_task<void()>>(std::move(fn));
  std::future<void> future = task->get_future();
  if (InPool() || workers() == 0) {
    (*task)();  // deadlock guard: a worker waiting on its own queue
    return future;
  }
  {
    MutexLock lock(mu_);
    queue_.emplace_back([task] { (*task)(); });
  }
  cv_.NotifyOne();
  return future;
}

namespace {

int KernelPoolWorkers() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int cpu_count = ::sched_getaffinity(0, sizeof(cpus), &cpus) == 0
                            ? CPU_COUNT(&cpus)
                            : static_cast<int>(std::thread::hardware_concurrency());
  return std::max(cpu_count - 1, 0);
}

ThreadPool& KernelPool() {
  // Never destroyed: a kernel running during static destruction still
  // finds its workers, and they stay parked until the process exits.
  static ThreadPool* const pool = new ThreadPool(KernelPoolWorkers());
  return *pool;
}

}  // namespace

void KernelParallelFor(long long n, void (*body)(void* ctx, long long begin, long long end),
                       void* ctx) {
  ThreadPool& pool = KernelPool();
  const long long chunks = std::min<long long>(n, pool.workers() + 1);
  if (chunks <= 1 || pool.InPool()) {
    if (n > 0) {
      body(ctx, 0, n);
    }
    return;
  }
  auto run = [=](long long c) { body(ctx, n * c / chunks, n * (c + 1) / chunks); };
  std::vector<std::future<void>> done;
  done.reserve(static_cast<size_t>(chunks - 1));
  long long queued = 1;
  try {
    for (; queued < chunks; ++queued) {
      done.push_back(pool.Submit([run, queued] { run(queued); }));
    }
  } catch (const std::bad_alloc&) {
    // No memory for another task: the caller runs the rest itself, and
    // never returns while a worker still uses `ctx`.
  }
  run(0);
  for (long long c = queued; c < chunks; ++c) {
    run(c);
  }
  for (std::future<void>& chunk : done) {
    chunk.get();
  }
}

}  // namespace spacefusion
