#include "src/codegen/jit_cache.h"

#include <dlfcn.h>
#include <unistd.h>
#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <string>
#include <utility>

#include "src/obs/metrics.h"
#include "src/support/binary_io.h"
#include "src/support/file_util.h"
#include "src/support/logging.h"
#include "src/support/thread_pool.h"

namespace spacefusion {

namespace {

#if defined(__x86_64__)
// The highest x86-64 psABI level, 2 to 4, whose every feature the CPU
// reports and whose vector registers the OS saves; 1 below v2. CPUID bit
// numbers per the psABI's level table: a CPU or VM that hides any one
// feature of a level gets the level below it.
int HostX86Level() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0) {
    return 1;
  }
  const unsigned leaf1_c = c;
  const unsigned leaf7_b = __get_cpuid_count(7, 0, &a, &b, &c, &d) != 0 ? b : 0;
  const unsigned ext1_c = __get_cpuid(0x80000001, &a, &b, &c, &d) != 0 ? c : 0;
  auto has = [](unsigned reg, std::initializer_list<int> bits) {
    for (int bit : bits) {
      if ((reg >> bit & 1u) == 0) {
        return false;
      }
    }
    return true;
  };
  // v2: SSE3, SSSE3, CMPXCHG16B, SSE4.1, SSE4.2, POPCNT; LAHF/SAHF.
  if (!has(leaf1_c, {0, 9, 13, 19, 20, 23}) || !has(ext1_c, {0})) {
    return 1;
  }
  // v3: FMA, MOVBE, OSXSAVE, AVX, F16C; BMI1, AVX2, BMI2; LZCNT.
  if (!has(leaf1_c, {12, 22, 27, 28, 29}) || !has(leaf7_b, {3, 5, 8}) || !has(ext1_c, {5})) {
    return 2;
  }
  // OSXSAVE is set, so XGETBV exists; XCR0 says which register state the
  // OS saves: XMM and YMM for v3, plus the opmask and ZMM state for v4.
  unsigned xcr0 = 0, xcr0_hi = 0;
  __asm__("xgetbv" : "=a"(xcr0), "=d"(xcr0_hi) : "c"(0));
  if ((xcr0 & 0x06u) != 0x06u) {
    return 2;
  }
  // v4: AVX512F, AVX512DQ, AVX512CD, AVX512BW, AVX512VL.
  if (!has(leaf7_b, {16, 17, 28, 30, 31}) || (xcr0 & 0xe0u) != 0xe0u) {
    return 3;
  }
  return 4;
}
#endif

std::string HexKey(std::uint64_t key) {
  char hex[20];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(key));
  return hex;
}

// A dlopened kernel: its handle and entry point.
struct LoadedSo {
  void* handle = nullptr;
  CppKernelFn fn = nullptr;
};

// dlopens `so_path` and binds its kernel to the kernel pool. Fails when the
// file does not load or lacks the entry or the bind symbol.
StatusOr<LoadedSo> LoadAndBind(const std::string& so_path, const std::string& symbol) {
  void* handle = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    const char* err = ::dlerror();
    return Internal(err != nullptr ? err : "dlopen failed");
  }
  auto fn = reinterpret_cast<CppKernelFn>(::dlsym(handle, symbol.c_str()));
  auto bind = reinterpret_cast<CppKernelBindFn>(::dlsym(handle, (symbol + "_bind").c_str()));
  if (fn == nullptr || bind == nullptr) {
    ::dlclose(handle);
    return Internal("missing symbol " + symbol + (fn == nullptr ? "" : "_bind"));
  }
  bind(&KernelParallelFor);
  return LoadedSo{handle, fn};
}

}  // namespace

std::string DefaultJitFlags() {
  std::string flags = "-O3 -std=c++17 -fPIC -shared -nostdlib -ffp-contract=off -fno-math-errno";
#if defined(__x86_64__)
  static const int level = HostX86Level();
  if (level >= 2) {
    flags += " -march=x86-64-v" + std::to_string(level);
  }
#endif
  return flags;
}

JitKernelCache::JitKernelCache(JitCacheOptions options)
    : options_(std::move(options)), dir_(options_.dir) {
  if (dir_.empty()) {
    std::error_code ec;
    std::filesystem::path tmp = std::filesystem::temp_directory_path(ec);
    if (ec) {
      tmp = ".";
    }
    dir_ = (tmp / "sf-jit-XXXXXX").string();
    owns_dir_ = ::mkdtemp(dir_.data()) != nullptr;
    if (!owns_dir_) {
      // Builds into the missing directory fail, and their kernels fall back
      // to the interpreter.
      SF_LOG(Warning) << "jit: cannot create a kernel cache directory under " << tmp.string();
    }
  }
}

JitKernelCache::~JitKernelCache() {
  MutexLock lock(mu_);
  for (auto& [key, loaded] : loaded_) {
    (void)key;
    if (loaded.handle != nullptr) {
      ::dlclose(loaded.handle);
    }
  }
  if (owns_dir_) {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }
}

std::uint64_t JitKernelCache::EntryKey(const CppKernel& kernel) const {
  std::string blob =
      "sfk-cache-v1|" + options_.compiler + "|" + options_.flags + "|" + HexKey(kernel.key);
  return Fnv1a64(blob);
}

std::string JitKernelCache::EntryPath(std::uint64_t entry_key, const char* ext) const {
  return dir_ + "/" + HexKey(entry_key) + ext;
}

StatusOr<double> JitKernelCache::Build(const CppKernel& kernel, const std::string& so_path,
                                       Stats* stats) const {
  const std::string cc_path = so_path.substr(0, so_path.size() - 3) + ".cc";
  SF_RETURN_IF_ERROR(AtomicWriteFile(cc_path, kernel.source));

  const std::string tmp_so = so_path + ".tmp." + std::to_string(::getpid());
  const std::string log_path = so_path + ".log";
  const std::string cmd = options_.compiler + " " + options_.flags + " -o \"" + tmp_so + "\" \"" +
                          cc_path + "\" 2> \"" + log_path + "\"";

  const auto start = std::chrono::steady_clock::now();
  const int rc = std::system(cmd.c_str());
  const double ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  ++stats->toolchain_invocations;
  SF_COUNTER_ADD("jit.cache.toolchain_invocations", 1);

  if (rc != 0) {
    StatusOr<std::string> log_or = ReadFileToString(log_path);
    std::string log = log_or.ok() ? log_or.value() : "";
    if (log.size() > 500) {
      log.resize(500);
    }
    std::remove(tmp_so.c_str());
    std::remove(log_path.c_str());
    return Internal("jit: '" + options_.compiler + "' failed (exit " + std::to_string(rc) +
                    ") building " + kernel.symbol + ": " + log);
  }
  std::remove(log_path.c_str());
  if (std::rename(tmp_so.c_str(), so_path.c_str()) != 0) {
    std::remove(tmp_so.c_str());
    return Internal("jit: rename into " + so_path + " failed");
  }
  return ms;
}

JitKernelCache::Loaded JitKernelCache::LoadOrBuild(const CppKernel& kernel,
                                                   std::uint64_t entry_key, Stats* stats) const {
  const std::string so_path = EntryPath(entry_key, ".sfk.so");
  StatusOr<LoadedSo> so = Internal("not on disk");
  if (::access(so_path.c_str(), F_OK) == 0) {
    so = LoadAndBind(so_path, kernel.symbol);
    if (!so.ok()) {
      // Undlopenable or missing a symbol: a corrupt (or stale-emitter)
      // entry. Evict it and rebuild below.
      ++stats->corrupt;
      SF_COUNTER_ADD("jit.cache.corrupt", 1);
      std::remove(so_path.c_str());
    } else {
      ++stats->disk_hits;
      SF_COUNTER_ADD("jit.cache.disk_hits", 1);
    }
  }

  if (!so.ok()) {
    StatusOr<double> build_ms = Build(kernel, so_path, stats);
    if (build_ms.ok()) {
      so = LoadAndBind(so_path, kernel.symbol);
    } else {
      SF_COUNTER_ADD("jit.cache.build_failures", 1);
    }
    if (!build_ms.ok() || !so.ok()) {
      Loaded failed;
      failed.failure = build_ms.ok() ? Internal("jit: freshly built " + kernel.symbol +
                                                " failed to load: " + so.status().message())
                                     : build_ms.status();
      // Remembered: the toolchain runs at most once per kernel and cache.
      ++stats->failures;
      SF_LOG(Warning) << failed.failure.message() << " (not retried for this cache's lifetime)";
      return failed;
    }
    ++stats->builds;
    stats->build_ms += build_ms.value();
    SF_COUNTER_ADD("jit.cache.builds", 1);
  }
  return Loaded{so->handle, so->fn, kernel.scratch_floats, Status::Ok()};
}

StatusOr<JitKernelCache::Kernel> JitKernelCache::GetOrBuild(const CppKernel& kernel) {
  const std::uint64_t entry_key = EntryKey(kernel);
  {
    MutexLock lock(mu_);
    while (in_flight_.count(entry_key) > 0) {
      landed_.Wait(mu_);
    }
    auto it = loaded_.find(entry_key);
    if (it != loaded_.end()) {
      if (it->second.fn == nullptr) {
        return it->second.failure;  // logged and counted when it happened
      }
      ++stats_.memory_hits;
      SF_COUNTER_ADD("jit.cache.hits", 1);
      return Kernel{it->second.fn, it->second.scratch_floats, entry_key};
    }
    in_flight_.insert(entry_key);
  }
  SF_COUNTER_ADD("jit.cache.misses", 1);

  Stats done;
  const Loaded entry = LoadOrBuild(kernel, entry_key, &done);

  MutexLock lock(mu_);
  stats_.disk_hits += done.disk_hits;
  stats_.builds += done.builds;
  stats_.corrupt += done.corrupt;
  stats_.failures += done.failures;
  stats_.build_ms += done.build_ms;
  stats_.toolchain_invocations += done.toolchain_invocations;
  loaded_[entry_key] = entry;
  in_flight_.erase(entry_key);
  landed_.NotifyAll();
  if (entry.fn == nullptr) {
    return entry.failure;
  }
  return Kernel{entry.fn, entry.scratch_floats, entry_key};
}

JitKernelCache::Stats JitKernelCache::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace spacefusion
