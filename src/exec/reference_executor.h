// Reference execution of operator graphs with the unfused tensor kernels —
// numerical ground truth for fused schedules.
#ifndef SPACEFUSION_SRC_EXEC_REFERENCE_EXECUTOR_H_
#define SPACEFUSION_SRC_EXEC_REFERENCE_EXECUTOR_H_

#include <vector>

#include "src/graph/graph.h"
#include "src/support/status.h"
#include "src/tensor/tensor.h"

namespace spacefusion {

// An execution environment: one Tensor slot per graph tensor id.
using TensorEnv = std::vector<Tensor>;

// Creates an environment with deterministic random inputs/weights and
// splatted constants; intermediates/outputs are left undefined.
TensorEnv MakeGraphInputs(const Graph& graph, std::uint64_t seed);

// Evaluates one op given its input tensors.
Tensor EvaluateOp(const Op& op, const std::vector<Tensor>& inputs);

// Executes every op in order, filling intermediates and outputs.
// INVALID_ARGUMENT when `env` has no slot per graph tensor, or, naming the
// tensor, when an op reads a slot that is undefined (the ops before it have
// run).
Status RunReference(const Graph& graph, TensorEnv* env);

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_EXEC_REFERENCE_EXECUTOR_H_
