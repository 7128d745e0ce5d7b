#include "src/codegen/jit_cache.h"

#include <dlfcn.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>

#include "src/obs/metrics.h"
#include "src/support/binary_io.h"
#include "src/support/file_util.h"
#include "src/support/logging.h"

namespace spacefusion {

std::string KernelCacheDirFromEnv() {
  const char* kernel_dir = std::getenv("SPACEFUSION_KERNEL_CACHE_DIR");
  if (kernel_dir != nullptr && kernel_dir[0] != '\0') {
    return kernel_dir;
  }
  const char* cache_dir = std::getenv("SPACEFUSION_CACHE_DIR");
  if (cache_dir != nullptr && cache_dir[0] != '\0') {
    return std::string(cache_dir) + "/kernels";
  }
  return "";
}

namespace {

std::string HexKey(std::uint64_t key) {
  char hex[20];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(key));
  return hex;
}

}  // namespace

JitKernelCache::JitKernelCache(JitCacheOptions options) : options_(std::move(options)) {
  dir_ = options_.dir;
  if (dir_.empty()) {
    std::error_code ec;
    std::filesystem::path tmp = std::filesystem::temp_directory_path(ec);
    if (ec) {
      tmp = ".";
    }
    dir_ = (tmp / ("sf-jit-" + std::to_string(::getpid()))).string();
  }
  compiler_ = options_.compiler;
  if (compiler_.empty()) {
    const char* env = std::getenv("SPACEFUSION_CXX");
    compiler_ = (env != nullptr && env[0] != '\0') ? env : "c++";
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
}

std::uint64_t JitKernelCache::EntryKey(const CppKernel& kernel) const {
  std::string blob =
      "sfk-cache-v1|" + compiler_ + "|" + options_.flags + "|" + HexKey(kernel.key);
  return Fnv1a64(blob);
}

std::string JitKernelCache::EntryPath(std::uint64_t entry_key, const char* ext) const {
  return dir_ + "/" + HexKey(entry_key) + ext;
}

StatusOr<double> JitKernelCache::Build(const CppKernel& kernel, const std::string& so_path) {
  const std::string cc_path = so_path.substr(0, so_path.size() - 3) + ".cc";
  SF_RETURN_IF_ERROR(AtomicWriteFile(cc_path, kernel.source));

  const std::string tmp_so = so_path + ".tmp." + std::to_string(::getpid());
  const std::string log_path = so_path + ".log";
  const std::string cmd = compiler_ + " " + options_.flags + " -o \"" + tmp_so + "\" \"" +
                          cc_path + "\" 2> \"" + log_path + "\"";

  const auto start = std::chrono::steady_clock::now();
  const int rc = std::system(cmd.c_str());
  const double ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  ++stats_.toolchain_invocations;
  SF_COUNTER_ADD("jit.cache.toolchain_invocations", 1);

  if (rc != 0) {
    StatusOr<std::string> log_or = ReadFileToString(log_path);
    std::string log = log_or.ok() ? log_or.value() : "";
    if (log.size() > 500) {
      log.resize(500);
    }
    std::remove(tmp_so.c_str());
    std::remove(log_path.c_str());
    return Internal("jit: '" + compiler_ + "' failed (exit " + std::to_string(rc) +
                    ") building " + kernel.symbol + ": " + log);
  }
  std::remove(log_path.c_str());
  if (std::rename(tmp_so.c_str(), so_path.c_str()) != 0) {
    std::remove(tmp_so.c_str());
    return Internal("jit: rename into " + so_path + " failed");
  }
  return ms;
}

StatusOr<JitKernelCache::Kernel> JitKernelCache::GetOrBuild(const CppKernel& kernel) {
  const std::uint64_t entry_key = EntryKey(kernel);
  MutexLock lock(mu_);

  auto it = loaded_.find(entry_key);
  if (it != loaded_.end()) {
    if (it->second.fn == nullptr) {
      return it->second.failure;  // logged and counted when it happened
    }
    ++stats_.memory_hits;
    SF_COUNTER_ADD("jit.cache.hits", 1);
    return Kernel{it->second.fn, it->second.scratch_floats, entry_key};
  }
  SF_COUNTER_ADD("jit.cache.misses", 1);

  const std::string so_path = EntryPath(entry_key, ".sfk.so");
  void* handle = nullptr;
  CppKernelFn fn = nullptr;

  if (::access(so_path.c_str(), F_OK) == 0) {
    handle = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (handle != nullptr) {
      fn = reinterpret_cast<CppKernelFn>(::dlsym(handle, kernel.symbol.c_str()));
    }
    if (handle == nullptr || fn == nullptr) {
      // Undlopenable or missing its symbol: a corrupt (or stale-emitter)
      // entry. Evict it and rebuild below.
      if (handle != nullptr) {
        ::dlclose(handle);
      }
      handle = nullptr;
      fn = nullptr;
      ++stats_.corrupt;
      SF_COUNTER_ADD("jit.cache.corrupt", 1);
      std::remove(so_path.c_str());
    }
  }

  if (fn == nullptr) {
    StatusOr<double> build_ms = Build(kernel, so_path);
    if (build_ms.ok()) {
      handle = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
      if (handle != nullptr) {
        fn = reinterpret_cast<CppKernelFn>(::dlsym(handle, kernel.symbol.c_str()));
      }
    } else {
      SF_COUNTER_ADD("jit.cache.build_failures", 1);
    }
    if (fn == nullptr) {
      Status failure = build_ms.status();
      if (failure.ok()) {
        const char* err = ::dlerror();
        failure = Internal("jit: freshly built " + kernel.symbol + " failed to load: " +
                           (err != nullptr ? err : "unknown dlerror"));
      }
      if (handle != nullptr) {
        ::dlclose(handle);
      }
      // Remembered: the toolchain runs at most once per kernel and cache.
      ++stats_.failures;
      SF_LOG(Warning) << failure.message() << " (not retried for this cache's lifetime)";
      loaded_[entry_key].failure = failure;
      return failure;
    }
    ++stats_.builds;
    stats_.build_ms += build_ms.value();
    SF_COUNTER_ADD("jit.cache.builds", 1);
  } else {
    ++stats_.disk_hits;
    SF_COUNTER_ADD("jit.cache.disk_hits", 1);
  }

  loaded_[entry_key] = Loaded{handle, fn, kernel.scratch_floats, Status::Ok()};
  return Kernel{fn, kernel.scratch_floats, entry_key};
}

JitKernelCache::Stats JitKernelCache::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace spacefusion
