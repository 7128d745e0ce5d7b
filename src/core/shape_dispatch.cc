#include "src/core/shape_dispatch.h"

#include <algorithm>
#include <utility>

#include "src/support/string_util.h"

namespace spacefusion {

Status ShapeDispatchTable::Add(ShapeCompileResult result) {
  const ModelGraph& model = result.bucketed.model;
  if (result.bucketed.layouts.size() != model.subprograms.size()) {
    return InvalidArgument(StrCat("bucketed model carries ", result.bucketed.layouts.size(),
                                  " layouts for ", model.subprograms.size(), " subprograms"));
  }
  const CompiledModel& compiled = result.compiled;
  const bool aligned =
      compiled.sub_to_unique.size() == model.subprograms.size() &&
      std::all_of(compiled.sub_to_unique.begin(), compiled.sub_to_unique.end(),
                  [&](size_t unique) { return unique < compiled.unique_subprograms.size(); });
  if (!aligned) {
    return InvalidArgument(StrCat("bucket ", result.bucketed.bucket_key.Label(), " compiled ",
                                  compiled.unique_subprograms.size(),
                                  " unique programs that do not align with the model's ",
                                  model.subprograms.size(), " subprograms"));
  }
  auto entry = std::make_unique<Entry>();
  entry->sub_to_unique = compiled.sub_to_unique;
  entry->result = std::move(result);
  const std::string label = entry->result.bucketed.bucket_key.Label();
  MutexLock lock(mu_);
  entries_[label] = std::move(entry);
  return Status::Ok();
}

const ShapeDispatchTable::Entry* ShapeDispatchTable::Route(const ShapeKey& shape) const {
  return EntryFor(policy_.BucketFor(shape));
}

const ShapeDispatchTable::Entry* ShapeDispatchTable::EntryFor(const ShapeKey& bucket) const {
  MutexLock lock(mu_);
  auto it = entries_.find(bucket.Label());
  return it == entries_.end() ? nullptr : it->second.get();
}

std::vector<std::string> ShapeDispatchTable::Buckets() const {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [label, entry] : entries_) {
    out.push_back(label);
  }
  return out;
}

Status RunBucketedSubprogram(const ShapeDispatchTable::Entry& entry, size_t sub_index,
                             const BucketedModel& exact, const TensorEnv& exact_inputs,
                             TensorEnv* exact_outputs, const BucketRunOptions& run) {
  if (run.backend == ExecBackend::kJit && run.jit == nullptr) {
    return InvalidArgument("jit backend requested without a JitExecutor");
  }
  const BucketedModel& bucketed = entry.result.bucketed;
  if (sub_index >= bucketed.model.subprograms.size() ||
      sub_index >= exact.model.subprograms.size()) {
    return InvalidArgument(StrCat("subprogram index ", sub_index, " out of range"));
  }
  const Graph& bucket_graph = bucketed.model.subprograms[sub_index].graph;
  const Graph& exact_graph = exact.model.subprograms[sub_index].graph;
  if (bucket_graph.tensors().size() != exact_graph.tensors().size()) {
    return InvalidArgument(
        StrCat("exact graph ", exact_graph.name(), " does not correspond to bucket graph ",
               bucket_graph.name(), ": ", exact_graph.tensors().size(), " vs ",
               bucket_graph.tensors().size(), " tensors"));
  }
  if (exact_inputs.size() != exact_graph.tensors().size()) {
    return InvalidArgument(StrCat("exact input env has ", exact_inputs.size(), " slots for ",
                                  exact_graph.tensors().size(), " tensors"));
  }
  const SubprogramLayout& layout = bucketed.layouts[sub_index];
  const AxisExtents exact_extents = exact.ExactExtents();
  const AxisExtents bucket_extents = bucketed.BucketExtents();

  TensorEnv bucket_env(bucket_graph.tensors().size());
  const std::vector<TensorId> input_ids = bucket_graph.InputIds();
  if (input_ids.size() != layout.inputs.size()) {
    return InvalidArgument(StrCat("layout lists ", layout.inputs.size(), " inputs for ",
                                  input_ids.size(), " graph inputs"));
  }
  for (size_t i = 0; i < input_ids.size(); ++i) {
    const size_t id = static_cast<size_t>(input_ids[i]);
    if (!exact_inputs[id].defined()) {
      return InvalidArgument(
          StrCat("exact input ", exact_graph.tensor(input_ids[i]).name, " is undefined"));
    }
    SF_ASSIGN_OR_RETURN(bucket_env[id], PadToBucket(layout.inputs[i], exact_inputs[id],
                                                    exact_extents, bucket_extents));
  }
  // Weights are shape-invariant between the exact and bucket configs;
  // constants re-splat at the bucket shape.
  for (TensorId weight : bucket_graph.WeightIds()) {
    const size_t id = static_cast<size_t>(weight);
    if (!exact_inputs[id].defined()) {
      return InvalidArgument(
          StrCat("exact weight ", exact_graph.tensor(weight).name, " is undefined"));
    }
    if (exact_inputs[id].shape() != bucket_graph.tensor(weight).shape) {
      return InvalidArgument(StrCat("weight ", bucket_graph.tensor(weight).name,
                                    " is not shape-invariant across the bucket"));
    }
    bucket_env[id] = exact_inputs[id];
  }
  for (const TensorInfo& t : bucket_graph.tensors()) {
    if (t.kind == TensorKind::kConstant) {
      bucket_env[static_cast<size_t>(t.id)] = Tensor::Full(t.shape, t.constant_value, t.dtype);
    }
  }

  const CompiledSubprogram& compiled =
      entry.result.compiled.unique_subprograms[entry.sub_to_unique[sub_index]];
  TensorEnv bucket_outputs;
  if (run.backend == ExecBackend::kJit) {
    SF_RETURN_IF_ERROR(run.jit->RunProgram(compiled.program, bucket_graph, bucket_env,
                                           &bucket_outputs));
  } else {
    SF_RETURN_IF_ERROR(
        RunScheduledProgram(compiled.program, bucket_graph, bucket_env, &bucket_outputs));
  }

  const std::vector<TensorId> output_ids = bucket_graph.OutputIds();
  if (output_ids.size() != layout.outputs.size()) {
    return InvalidArgument(StrCat("layout lists ", layout.outputs.size(), " outputs for ",
                                  output_ids.size(), " graph outputs"));
  }
  exact_outputs->assign(exact_graph.tensors().size(), Tensor());
  for (size_t i = 0; i < output_ids.size(); ++i) {
    const size_t id = static_cast<size_t>(output_ids[i]);
    SF_ASSIGN_OR_RETURN((*exact_outputs)[id], SliceToExact(layout.outputs[i], bucket_outputs[id],
                                                           exact_extents, bucket_extents));
  }
  return Status::Ok();
}

}  // namespace spacefusion
