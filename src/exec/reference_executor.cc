#include "src/exec/reference_executor.h"

#include "src/support/logging.h"
#include "src/support/string_util.h"
#include "src/tensor/tensor_ops.h"

namespace spacefusion {

TensorEnv MakeGraphInputs(const Graph& graph, std::uint64_t seed) {
  TensorEnv env(graph.tensors().size());
  for (const TensorInfo& t : graph.tensors()) {
    switch (t.kind) {
      case TensorKind::kInput:
      case TensorKind::kWeight:
        env[static_cast<size_t>(t.id)] =
            Tensor::Random(t.shape, seed + static_cast<std::uint64_t>(t.id) * 7919, t.dtype);
        break;
      case TensorKind::kConstant:
        env[static_cast<size_t>(t.id)] = Tensor::Full(t.shape, t.constant_value, t.dtype);
        break;
      case TensorKind::kIntermediate:
      case TensorKind::kOutput:
        break;
    }
  }
  return env;
}

Tensor EvaluateOp(const Op& op, const std::vector<Tensor>& inputs) {
  switch (op.kind) {
    case OpKind::kMatMul:
      SF_CHECK_EQ(inputs.size(), 2u);
      return MatMul(inputs[0], inputs[1], op.attrs.transpose_a, op.attrs.transpose_b);
    case OpKind::kUnary:
      SF_CHECK_EQ(inputs.size(), 1u);
      return Unary(op.attrs.unary, inputs[0]);
    case OpKind::kBinary:
      SF_CHECK_EQ(inputs.size(), 2u);
      return Binary(op.attrs.binary, inputs[0], inputs[1]);
    case OpKind::kReduce:
      SF_CHECK_EQ(inputs.size(), 1u);
      return Reduce(op.attrs.reduce, inputs[0]);
  }
  SF_CHECK(false) << "unreachable";
  return Tensor();
}

Status RunReference(const Graph& graph, TensorEnv* env) {
  if (env->size() != graph.tensors().size()) {
    return InvalidArgument(StrCat("graph ", graph.name(), " has ", graph.tensors().size(),
                                  " tensors but the environment has ", env->size(), " slots"));
  }
  for (const Op& op : graph.ops()) {
    std::vector<Tensor> inputs;
    inputs.reserve(op.inputs.size());
    for (TensorId in : op.inputs) {
      const Tensor& t = (*env)[static_cast<size_t>(in)];
      if (!t.defined()) {
        return InvalidArgument(StrCat("tensor ", graph.tensor(in).name, " of graph ",
                                      graph.name(), " is undefined"));
      }
      inputs.push_back(t);
    }
    (*env)[static_cast<size_t>(op.output)] = EvaluateOp(op, inputs);
  }
  return Status::Ok();
}

}  // namespace spacefusion
