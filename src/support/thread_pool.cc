#include "src/support/thread_pool.h"

#include <memory>

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

}  // namespace spacefusion
