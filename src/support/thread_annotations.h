// Clang Thread Safety Analysis annotations (SF_GUARDED_BY, SF_REQUIRES, ...)
// and the annotated synchronization primitives the concurrent subsystems use.
//
// The annotations make lock discipline a compile-time property: every shared
// field names the mutex that guards it, every helper that expects a lock held
// declares it, and CI builds with clang's -Wthread-safety -Werror so a missed
// lock is a build break instead of a TSan sample. Under non-clang compilers
// (the default local toolchain is gcc) the macros expand to nothing.
//
// std::mutex itself carries no capability attributes, so annotating fields
// with a raw std::mutex would make clang warn on every correct acquisition.
// The thin wrappers below (Mutex / MutexLock / CondVar / SharedMutex) forward
// to the standard primitives and exist only to carry the attributes; they are
// the required vocabulary for new concurrent state in this codebase (see
// DESIGN.md "Static race analysis").
#ifndef SPACEFUSION_SRC_SUPPORT_THREAD_ANNOTATIONS_H_
#define SPACEFUSION_SRC_SUPPORT_THREAD_ANNOTATIONS_H_

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#if defined(__clang__) && defined(__has_attribute)
#define SF_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SF_THREAD_ANNOTATION(x)
#endif

// Declares that a class is a lockable capability ("mutex").
#define SF_CAPABILITY(x) SF_THREAD_ANNOTATION(capability(x))
// Declares an RAII class whose lifetime equals a critical section.
#define SF_SCOPED_CAPABILITY SF_THREAD_ANNOTATION(scoped_lockable)
// Field is only read/written with `x` held.
#define SF_GUARDED_BY(x) SF_THREAD_ANNOTATION(guarded_by(x))
// Pointee (not the pointer) is guarded by `x`.
#define SF_PT_GUARDED_BY(x) SF_THREAD_ANNOTATION(pt_guarded_by(x))
// Caller must hold the capability (exclusively / shared) around the call.
#define SF_REQUIRES(...) SF_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define SF_REQUIRES_SHARED(...) SF_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
// Function acquires / releases the capability.
#define SF_ACQUIRE(...) SF_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define SF_ACQUIRE_SHARED(...) SF_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define SF_RELEASE(...) SF_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define SF_RELEASE_SHARED(...) SF_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define SF_TRY_ACQUIRE(...) SF_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
// Caller must NOT hold the capability (non-reentrant acquisition ahead).
#define SF_EXCLUDES(...) SF_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
// Return value is a reference to a capability-guarded object.
#define SF_RETURN_CAPABILITY(x) SF_THREAD_ANNOTATION(lock_returned(x))
// Escape hatch for patterns the analysis cannot express (documented at use).
#define SF_NO_THREAD_SAFETY_ANALYSIS SF_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace spacefusion {

// std::mutex with capability attributes. CondVar waits on the wrapped
// std::mutex directly.
class SF_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SF_ACQUIRE() { mu_.lock(); }
  void unlock() SF_RELEASE() { mu_.unlock(); }
  bool try_lock() SF_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII critical section over a Mutex (the std::lock_guard counterpart).
class SF_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SF_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() SF_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable over Mutex. Waits are expressed as explicit loops at
// the call site (`while (!pred) cv.Wait(mu);`) rather than predicate
// lambdas: the analysis cannot see that a lambda runs with the lock held,
// but it tracks the enclosing scope's capability across Wait just fine.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases `mu`, blocks, and reacquires it before returning.
  // std::condition_variable waits on the held std::mutex itself; the _any
  // variant would lock an internal mutex of its own on every wait and
  // notify.
  void Wait(Mutex& mu) SF_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller still holds `mu`
  }
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

// std::shared_mutex with capability attributes (reader/writer capability).
class SF_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() SF_ACQUIRE() { mu_.lock(); }
  void unlock() SF_RELEASE() { mu_.unlock(); }
  void lock_shared() SF_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() SF_RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

// RAII exclusive (writer) section over a SharedMutex.
class SF_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) SF_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~WriterMutexLock() SF_RELEASE() { mu_.unlock(); }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

// RAII shared (reader) section over a SharedMutex.
class SF_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) SF_ACQUIRE_SHARED(mu) : mu_(mu) { mu_.lock_shared(); }
  ~ReaderMutexLock() SF_RELEASE() { mu_.unlock_shared(); }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_SUPPORT_THREAD_ANNOTATIONS_H_
