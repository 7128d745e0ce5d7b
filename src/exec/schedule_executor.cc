#include "src/exec/schedule_executor.h"

#include <limits>
#include <map>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/support/logging.h"
#include "src/support/string_util.h"
#include "src/tensor/tensor_ops.h"

namespace spacefusion {

namespace {

// Copies the [start, start+width) slice of `axis` out of `t`.
Tensor SliceAxis(const Tensor& t, int axis, std::int64_t start, std::int64_t width) {
  const Shape& shape = t.shape();
  std::vector<std::int64_t> out_dims = shape.dims();
  out_dims[static_cast<size_t>(axis)] = width;
  Tensor out(Shape(out_dims), t.dtype());

  std::int64_t inner = 1;
  for (int i = axis + 1; i < shape.rank(); ++i) {
    inner *= shape.dim(i);
  }
  std::int64_t outer = 1;
  for (int i = 0; i < axis; ++i) {
    outer *= shape.dim(i);
  }
  std::int64_t axis_extent = shape.dim(axis);
  for (std::int64_t o = 0; o < outer; ++o) {
    for (std::int64_t a = 0; a < width; ++a) {
      const float* src = t.data() + (o * axis_extent + start + a) * inner;
      float* dst = out.data() + (o * width + a) * inner;
      for (std::int64_t i = 0; i < inner; ++i) {
        dst[i] = src[i];
      }
    }
  }
  return out;
}

// Writes `slice` into `full` at [start, ...) of `axis`.
void WriteSlice(Tensor* full, const Tensor& slice, int axis, std::int64_t start) {
  const Shape& shape = full->shape();
  std::int64_t width = slice.shape().dim(axis);
  std::int64_t inner = 1;
  for (int i = axis + 1; i < shape.rank(); ++i) {
    inner *= shape.dim(i);
  }
  std::int64_t outer = 1;
  for (int i = 0; i < axis; ++i) {
    outer *= shape.dim(i);
  }
  std::int64_t axis_extent = shape.dim(axis);
  for (std::int64_t o = 0; o < outer; ++o) {
    for (std::int64_t a = 0; a < width; ++a) {
      float* dst = full->data() + (o * axis_extent + start + a) * inner;
      const float* src = slice.data() + (o * width + a) * inner;
      for (std::int64_t i = 0; i < inner; ++i) {
        dst[i] = src[i];
      }
    }
  }
}

// Elementwise update multiplier for one factor given the old/new published
// values of its source reduction.
Tensor FactorMultiplier(const UpdateFactor& factor, const Tensor& old_v, const Tensor& new_v) {
  Tensor out(old_v.shape(), DType::kF32);
  for (std::int64_t i = 0; i < out.volume(); ++i) {
    out.at(i) = factor.Multiplier(old_v.at(i), new_v.at(i));
  }
  return out;
}

}  // namespace

Status RunSchedule(const SmgSchedule& schedule, TensorEnv* env) {
  const Graph& graph = schedule.graph;
  ScopedSpan span("exec.run_schedule", "exec");
  span.Arg("kernel", graph.name());
  SF_COUNTER_ADD("exec.kernel_launches", 1);

  if (!schedule.has_temporal || schedule.NumIntraBlocks() <= 1) {
    // No temporal loop: the fused kernel evaluates the dataflow once.
    return RunReference(graph, env);
  }
  span.Arg("temporal_steps", schedule.NumIntraBlocks());
  SF_COUNTER_ADD("exec.temporal_steps", schedule.NumIntraBlocks());

  const SmgBuildResult& built = schedule.built;
  const DimId tdim = schedule.temporal.dim;
  const std::int64_t extent = built.smg.dim(tdim).extent;
  const std::int64_t step = schedule.temporal.block;

  // Aggregation lookup.
  std::map<OpId, const ReductionAggregation*> agg_of;
  for (const ReductionAggregation& agg : schedule.plan.aggregations) {
    agg_of[agg.op] = &agg;
  }

  // Running state: raw accumulator plus the value published to consumers.
  std::map<OpId, Tensor> acc;
  std::map<OpId, Tensor> published;
  for (const ReductionAggregation& agg : schedule.plan.aggregations) {
    const TensorInfo& out = graph.tensor(graph.op(agg.op).output);
    float init = agg.combiner == ReduceOpKind::kMax
                     ? -std::numeric_limits<float>::infinity()
                     : 0.0f;
    acc[agg.op] = Tensor::Full(out.shape, init, DType::kF32);
    published[agg.op] = Tensor::Zeros(out.shape, DType::kF32);
  }

  // Full buffers for outputs that extend along the temporal dim (pure
  // streaming outputs; the plan derivation guarantees they are not
  // downstream of running reductions).
  std::map<TensorId, Tensor> streamed_outputs;
  for (const TensorInfo& t : graph.tensors()) {
    if (t.kind == TensorKind::kOutput && built.AxisOfDim(t.id, tdim) >= 0) {
      streamed_outputs[t.id] = Tensor::Zeros(t.shape, t.dtype);
    }
  }

  std::vector<Tensor> cur(graph.tensors().size());
  std::int64_t processed = 0;

  for (std::int64_t s0 = 0; s0 < extent; s0 += step) {
    const std::int64_t width = std::min(step, extent - s0);
    processed += width;

    // Old published values, captured before this intra-block aggregates.
    std::map<OpId, Tensor> published_old = published;

    for (const Op& op : graph.ops()) {
      // Gather inputs: boundary tensors come from env (sliced along the
      // temporal axis when they extend along it); computed tensors with a
      // temporal axis are already stored as the current slice.
      std::vector<Tensor> inputs;
      inputs.reserve(op.inputs.size());
      for (TensorId in : op.inputs) {
        const Tensor& computed = cur[static_cast<size_t>(in)];
        if (computed.defined()) {
          inputs.push_back(computed);
          continue;
        }
        const Tensor& boundary = (*env)[static_cast<size_t>(in)];
        if (!boundary.defined()) {
          return InvalidArgument(StrCat("tensor ", graph.tensor(in).name, " of graph ",
                                        graph.name(), " is undefined"));
        }
        int axis = built.AxisOfDim(in, tdim);
        inputs.push_back(axis >= 0 ? SliceAxis(boundary, axis, s0, width) : boundary);
      }

      auto agg_it = agg_of.find(op.id);
      if (agg_it == agg_of.end()) {
        cur[static_cast<size_t>(op.output)] = EvaluateOp(op, inputs);
        auto so = streamed_outputs.find(op.output);
        if (so != streamed_outputs.end()) {
          int axis = built.AxisOfDim(op.output, tdim);
          WriteSlice(&so->second, cur[static_cast<size_t>(op.output)], axis, s0);
        }
        continue;
      }

      // Running reduction: local contribution over this intra-block's slice.
      const ReductionAggregation& agg = *agg_it->second;
      Tensor local;
      if (op.kind == OpKind::kMatMul) {
        local = MatMul(inputs[0], inputs[1], op.attrs.transpose_a, op.attrs.transpose_b);
      } else if (agg.finalize_divide_by_extent) {
        local = Reduce(ReduceKind::kSum, inputs[0]);  // raw partial sum
      } else {
        local = Reduce(op.attrs.reduce, inputs[0]);
      }

      // Update-then-Aggregate: rescale the old running value so it is
      // consistent with the freshest dependee reductions, then combine.
      Tensor updated_old = acc[op.id];
      for (const UpdateFactor& factor : agg.update) {
        const Tensor& old_v = published_old.at(factor.source);
        const Tensor& new_v = published.at(factor.source);
        updated_old = Binary(BinaryKind::kMul, updated_old, FactorMultiplier(factor, old_v, new_v));
      }
      BinaryKind combine =
          agg.combiner == ReduceOpKind::kMax ? BinaryKind::kMax : BinaryKind::kAdd;
      acc[op.id] = Binary(combine, updated_old, local);

      published[op.id] = agg.finalize_divide_by_extent
                             ? Scale(acc[op.id], 1.0f / static_cast<float>(processed))
                             : acc[op.id];
      cur[static_cast<size_t>(op.output)] = published[op.id];
    }
  }

  // Publish results: streamed outputs from their full buffers; everything
  // else from the final intra-block's values.
  for (const Op& op : graph.ops()) {
    TensorId out = op.output;
    auto so = streamed_outputs.find(out);
    if (so != streamed_outputs.end()) {
      (*env)[static_cast<size_t>(out)] = so->second;
    } else {
      (*env)[static_cast<size_t>(out)] = cur[static_cast<size_t>(out)];
    }
  }
  return Status::Ok();
}

Status RunProgramWith(const KernelRunner& run_kernel, const ScheduledProgram& program,
                      const Graph& original, const TensorEnv& original_inputs,
                      TensorEnv* final_outputs) {
  // The caller's tensors are checked once, here, for both executors: past
  // this point the interpreter trusts every shape, and a JIT kernel that
  // refused one would fall back rather than fail the request.
  const std::vector<TensorInfo>& tensors = original.tensors();
  if (original_inputs.size() != tensors.size()) {
    return InvalidArgument(StrCat(
        "graph ", original.name(), " has ", tensors.size(), " tensors but the inputs have ",
        original_inputs.size(), " slots",
        original_inputs.size() < tensors.size()
            ? StrCat(" (none for ", tensors[original_inputs.size()].name, ")")
            : ""));
  }
  std::map<std::string, Tensor> by_name;
  for (const TensorInfo& t : tensors) {
    if (t.kind == TensorKind::kInput || t.kind == TensorKind::kWeight ||
        t.kind == TensorKind::kConstant) {
      const Tensor& given = original_inputs[static_cast<size_t>(t.id)];
      if (!given.defined()) {
        return InvalidArgument(StrCat("input ", t.name, " of graph ", original.name(),
                                      " is undefined"));
      }
      if (given.shape() != t.shape) {
        return InvalidArgument(StrCat("input ", t.name, " has shape ", given.shape().ToString(),
                                      ", graph ", original.name(), " expects ",
                                      t.shape.ToString()));
      }
      by_name[t.name] = given;
    }
  }

  for (const SmgSchedule& kernel : program.kernels) {
    const Graph& graph = kernel.graph;
    TensorEnv env(graph.tensors().size());
    for (const TensorInfo& t : graph.tensors()) {
      if (t.kind == TensorKind::kIntermediate || t.kind == TensorKind::kOutput) {
        continue;
      }
      auto it = by_name.find(t.name);
      if (it != by_name.end()) {
        env[static_cast<size_t>(t.id)] = it->second;
      } else if (t.kind == TensorKind::kConstant) {
        env[static_cast<size_t>(t.id)] = Tensor::Full(t.shape, t.constant_value, t.dtype);
      } else {
        return Internal(StrCat("kernel ", graph.name(), " misses input ", t.name));
      }
    }
    SF_RETURN_IF_ERROR(run_kernel(kernel, &env));
    for (const TensorInfo& t : graph.tensors()) {
      if (t.kind == TensorKind::kOutput) {
        by_name[t.name] = env[static_cast<size_t>(t.id)];
      }
    }
  }

  final_outputs->assign(original.tensors().size(), Tensor());
  for (const TensorInfo& t : original.tensors()) {
    if (t.kind == TensorKind::kOutput) {
      auto it = by_name.find(t.name);
      if (it == by_name.end()) {
        return Internal(StrCat("program did not produce output ", t.name));
      }
      (*final_outputs)[static_cast<size_t>(t.id)] = it->second;
    }
  }
  return Status::Ok();
}

Status RunScheduledProgram(const ScheduledProgram& program, const Graph& original,
                           const TensorEnv& original_inputs, TensorEnv* final_outputs) {
  ScopedSpan span("exec.run_program", "exec");
  span.Arg("graph", original.name())
      .Arg("kernels", static_cast<std::int64_t>(program.kernels.size()));
  return RunProgramWith(RunSchedule, program, original, original_inputs, final_outputs);
}

}  // namespace spacefusion
