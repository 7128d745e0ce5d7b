// JIT execution of fused schedules: native code instead of interpretation.
//
// The JitExecutor emits specialized C++ for each kernel (cpp_codegen),
// compiles it through the persistent JIT kernel cache (jit_cache), and runs
// the resulting shared object. Execution is the only place kernels are
// built: the CompilerEngine produces schedules and never builds one. Every
// jit failure — emission, toolchain, dlopen, corrupt cache entry — falls
// back to the schedule interpreter (fallback ladder jit -> interpret), so
// the JIT can never produce fewer answers than the interpreter, only faster
// ones. A kernel whose build failed stays on the interpreter without
// re-running the toolchain (the cache remembers the failure).
//
// Each kernel runs on the calling thread, which also runs one chunk of
// every parallel loop the kernel hands the process's kernel pool
// (KernelParallelFor). The executor allocates the kernel's outputs
// (Tensor::ForOverwrite) and its scratch fresh on every call and
// uninitialized: the kernel ABI promises every element is written before it
// is read. Each call's outputs are new tensors that no later call touches.
// Several threads may run programs through one executor at once.
//
// Numerics: the emitted code replays the interpreter's exact per-element
// operation order and is compiled with -ffp-contract=off, so outputs are
// bit-identical to the interpreter on reassociation-free op streams, at any
// thread count (see DESIGN.md "Native codegen & JIT kernel cache" for the
// tolerance policy).
#ifndef SPACEFUSION_SRC_EXEC_JIT_EXECUTOR_H_
#define SPACEFUSION_SRC_EXEC_JIT_EXECUTOR_H_

#include <cstdint>
#include <memory>

#include "src/codegen/cpp_codegen.h"
#include "src/codegen/jit_cache.h"
#include "src/exec/schedule_executor.h"
#include "src/support/thread_annotations.h"

namespace spacefusion {

// Which executor runs a compiled schedule.
enum class ExecBackend { kInterpret, kJit };

struct JitExecutorOptions {
  CppCodegenOptions codegen;
  // Kernel cache configuration. An empty dir gives the executor's cache a
  // temp directory of its own, removed with the executor.
  JitCacheOptions cache;
};

class JitExecutor {
 public:
  struct Stats {
    std::int64_t jit_runs = 0;   // kernels executed natively
    std::int64_t fallbacks = 0;  // kernels that fell back to the interpreter
  };

  explicit JitExecutor(JitExecutorOptions options = JitExecutorOptions());
  // Runs against an externally owned kernel cache (e.g. one a deployment
  // filled ahead of its first request). `shared_cache` must outlive the
  // executor.
  JitExecutor(JitExecutorOptions options, JitKernelCache* shared_cache);

  // Executes one fused kernel's schedule over `env`, natively when
  // possible. Mirrors RunSchedule's contract.
  Status RunKernel(const SmgSchedule& schedule, TensorEnv* env);

  // Executes a partitioned program: RunProgramWith over RunKernel. Mirrors
  // RunScheduledProgram's contract.
  Status RunProgram(const ScheduledProgram& program, const Graph& original,
                    const TensorEnv& original_inputs, TensorEnv* final_outputs);

  JitKernelCache& cache() { return *cache_; }
  Stats stats() const;

 private:
  Status TryRunJit(const SmgSchedule& schedule, TensorEnv* env);

  JitExecutorOptions options_;
  std::unique_ptr<JitKernelCache> owned_cache_;
  JitKernelCache* cache_ = nullptr;

  mutable Mutex mu_;
  Stats stats_ SF_GUARDED_BY(mu_);
};

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_EXEC_JIT_EXECUTOR_H_
