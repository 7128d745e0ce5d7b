#include "src/exec/jit_executor.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/support/logging.h"

namespace spacefusion {

JitExecutor::JitExecutor(JitExecutorOptions options)
    : options_(std::move(options)),
      owned_cache_(std::make_unique<JitKernelCache>(options_.cache)),
      cache_(owned_cache_.get()) {}

JitExecutor::JitExecutor(JitExecutorOptions options, JitKernelCache* shared_cache)
    : options_(std::move(options)), cache_(shared_cache) {
  SF_CHECK(cache_ != nullptr);
}

Status JitExecutor::TryRunJit(const SmgSchedule& schedule, TensorEnv* env) {
  SF_ASSIGN_OR_RETURN(CppKernel kernel, EmitCppKernel(schedule, options_.codegen));
  SF_ASSIGN_OR_RETURN(JitKernelCache::Kernel loaded, cache_->GetOrBuild(kernel));

  const Graph& graph = schedule.graph;
  std::vector<const float*> in_ptrs;
  in_ptrs.reserve(kernel.input_ids.size());
  for (TensorId t : kernel.input_ids) {
    const Tensor& tensor = (*env)[static_cast<size_t>(t)];
    if (!tensor.defined()) {
      return Internal("jit: undefined input tensor " + graph.tensor(t).name);
    }
    if (tensor.shape() != graph.tensor(t).shape) {
      return Internal("jit: input " + graph.tensor(t).name + " has shape " +
                      tensor.shape().ToString() + ", kernel was specialized for " +
                      graph.tensor(t).shape.ToString());
    }
    in_ptrs.push_back(tensor.data());
  }
  // Outputs and scratch are uninitialized: a kernel writes every element of
  // both before reading it.
  std::vector<Tensor> outputs;
  std::vector<float*> out_ptrs;
  outputs.reserve(kernel.output_ids.size());
  out_ptrs.reserve(kernel.output_ids.size());
  for (TensorId t : kernel.output_ids) {
    const TensorInfo& info = graph.tensor(t);
    outputs.push_back(Tensor::ForOverwrite(info.shape, info.dtype));
    out_ptrs.push_back(outputs.back().data());
  }
  const std::unique_ptr<float[]> scratch =
      std::make_unique_for_overwrite<float[]>(static_cast<size_t>(loaded.scratch_floats));

  const int rc = loaded.fn(in_ptrs.data(), out_ptrs.data(), scratch.get());
  if (rc != 0) {
    return Internal("jit: kernel " + kernel.symbol + " returned " + std::to_string(rc));
  }
  for (size_t i = 0; i < kernel.output_ids.size(); ++i) {
    (*env)[static_cast<size_t>(kernel.output_ids[i])] = outputs[i];
  }
  return Status::Ok();
}

Status JitExecutor::RunKernel(const SmgSchedule& schedule, TensorEnv* env) {
  ScopedSpan span("exec.jit.run_kernel", "exec");
  span.Arg("kernel", schedule.graph.name());
  Status jit = TryRunJit(schedule, env);
  if (jit.ok()) {
    SF_COUNTER_ADD("exec.jit.kernel_launches", 1);
    MutexLock lock(mu_);
    ++stats_.jit_runs;
    return jit;
  }
  // The reason rides on the span, not the log: a fallback repeats on every
  // call of its kernel, and the kernel cache already logged a failed build
  // once.
  span.Arg("fallback", jit.message());
  SF_COUNTER_ADD("exec.jit.fallbacks", 1);
  {
    MutexLock lock(mu_);
    ++stats_.fallbacks;
  }
  return RunSchedule(schedule, env);
}

Status JitExecutor::RunProgram(const ScheduledProgram& program, const Graph& original,
                               const TensorEnv& original_inputs, TensorEnv* final_outputs) {
  ScopedSpan span("exec.jit.run_program", "exec");
  span.Arg("graph", original.name())
      .Arg("kernels", static_cast<std::int64_t>(program.kernels.size()));
  return RunProgramWith(
      [this](const SmgSchedule& kernel, TensorEnv* env) { return RunKernel(kernel, env); },
      program, original, original_inputs, final_outputs);
}

JitExecutor::Stats JitExecutor::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace spacefusion
