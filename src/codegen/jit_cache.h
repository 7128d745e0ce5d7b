// Persistent JIT kernel cache: compiles emitted C++ kernels with the host
// toolchain into shared objects and dlopens them.
//
// Entries are content-addressed: the cache key mixes the kernel key (itself
// a hash of the emitted source, the codegen options digest, and the emitter
// version) with the compiler command and flags, so a toolchain or flag
// change can never serve a stale binary. The default flags carry the host's
// ISA level, so a directory shared by hosts of different levels never
// serves a .so the host cannot run. On-disk layout:
//
//   <dir>/<16-hex-key>.sfk.so    the compiled kernel
//   <dir>/<16-hex-key>.sfk.cc    the source it was built from (debugging)
//
// Lookup ladder per kernel: in-memory handle -> dlopen of the on-disk .so
// -> toolchain build. A loaded kernel is bound to the process's kernel pool
// (its sf_k_<key>_bind entry gets KernelParallelFor) before it is returned.
// A .so that fails to dlopen or lacks the entry or bind symbol is
// *corrupt*: it is counted (jit.cache.corrupt), unlinked, and rebuilt. A
// build or load that fails is logged once and remembered for the cache's
// lifetime: later lookups of that kernel return the same error without
// re-running the toolchain, and callers fall back to the interpreter, never
// crash.
//
// No lock is held across the disk probe, the toolchain or dlopen: a lookup
// marks its kernel in flight and does that work unlocked, so memory hits
// and other kernels' builds proceed meanwhile, and a second lookup of the
// same kernel waits for the first one's outcome instead of building again.
#ifndef SPACEFUSION_SRC_CODEGEN_JIT_CACHE_H_
#define SPACEFUSION_SRC_CODEGEN_JIT_CACHE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "src/codegen/cpp_codegen.h"
#include "src/support/status.h"
#include "src/support/thread_annotations.h"

namespace spacefusion {

// The JIT's compile flags on this host: -O3 -std=c++17 -fPIC -shared
// -nostdlib -ffp-contract=off -fno-math-errno, plus -march=x86-64-v4, -v3 or
// -v2 for the highest ISA level whose every feature the CPU reports and
// whose vector registers the OS saves (x86-64 only; other hosts get no
// -march). A kernel calls no library function: its exp and tanh are
// kSfMathSource and, without errno, its sqrt is one instruction, so it
// links against nothing.
std::string DefaultJitFlags();

struct JitCacheOptions {
  // Cache directory, shared by every cache and process that names it. ""
  // makes a fresh directory under the system temp dir that the cache
  // removes when it is destroyed: its kernels live as long as the cache.
  std::string dir;
  // Host compiler command.
  std::string compiler = "c++";
  // Compile flags, part of every entry key. -ffp-contract=off keeps the
  // JIT-compiled kernels from contracting a*b+c into fma, which would break
  // bit-parity with the separately compiled interpreter; the host ISA level
  // widens the vectors without changing a single rounding.
  std::string flags = DefaultJitFlags();
};

class JitKernelCache {
 public:
  struct Stats {
    std::int64_t memory_hits = 0;  // served from the in-process handle map
    std::int64_t disk_hits = 0;    // dlopened a previously built .so
    std::int64_t builds = 0;       // toolchain invocations that succeeded
    std::int64_t corrupt = 0;      // undlopenable / symbol-less entries
    std::int64_t failures = 0;     // builds or loads that errored
    double build_ms = 0.0;         // cumulative wall time inside the toolchain
    // Every time the host compiler ran, successful or not.
    std::int64_t toolchain_invocations = 0;
  };

  // A loaded, callable kernel.
  struct Kernel {
    CppKernelFn fn = nullptr;
    std::int64_t scratch_floats = 0;
    std::uint64_t key = 0;    // cache entry key (kernel key x toolchain)
  };

  explicit JitKernelCache(JitCacheOptions options = JitCacheOptions());
  ~JitKernelCache();

  JitKernelCache(const JitKernelCache&) = delete;
  JitKernelCache& operator=(const JitKernelCache&) = delete;

  // Returns the callable for `kernel`, building and/or loading it as
  // needed. Thread-safe; concurrent requests for the same kernel build it
  // once, and no request waits on another kernel's build.
  StatusOr<Kernel> GetOrBuild(const CppKernel& kernel);

  Stats stats() const;
  const std::string& dir() const { return dir_; }

 private:
  // A loaded entry, or (fn == nullptr) the error its build or load failed
  // with.
  struct Loaded {
    void* handle = nullptr;
    CppKernelFn fn = nullptr;
    std::int64_t scratch_floats = 0;
    Status failure;
  };

  std::uint64_t EntryKey(const CppKernel& kernel) const;
  std::string EntryPath(std::uint64_t entry_key, const char* ext) const;
  // Loads the entry from disk or builds it, counting what it did into
  // `stats`. Runs without mu_: the caller has marked the entry in flight.
  Loaded LoadOrBuild(const CppKernel& kernel, std::uint64_t entry_key, Stats* stats) const
      SF_EXCLUDES(mu_);
  // Compiles kernel.source into `so_path`, counting the toolchain run into
  // `stats`. Returns the toolchain wall time.
  StatusOr<double> Build(const CppKernel& kernel, const std::string& so_path,
                         Stats* stats) const;

  JitCacheOptions options_;
  std::string dir_;         // options_.dir, or the directory the cache made
  bool owns_dir_ = false;   // dir_ was made by this cache and dies with it

  mutable Mutex mu_;
  std::map<std::uint64_t, Loaded> loaded_ SF_GUARDED_BY(mu_);
  std::set<std::uint64_t> in_flight_ SF_GUARDED_BY(mu_);  // being loaded or built
  CondVar landed_;  // an in-flight entry reached loaded_
  Stats stats_ SF_GUARDED_BY(mu_);
};

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_CODEGEN_JIT_CACHE_H_
