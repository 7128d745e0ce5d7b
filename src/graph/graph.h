// Dataflow graphs (DFGs) of primitive tensor operators.
//
// A Graph is the unit the paper calls a "subprogram": the compiler segments a
// model into subprograms and builds one fused SMG per subprogram. Ops are
// stored in topological order (the builder only ever appends ops whose inputs
// already exist).
#ifndef SPACEFUSION_SRC_GRAPH_GRAPH_H_
#define SPACEFUSION_SRC_GRAPH_GRAPH_H_

#include <string>
#include <vector>

#include "src/graph/op.h"
#include "src/support/status.h"
#include "src/tensor/dtype.h"
#include "src/tensor/shape.h"

namespace spacefusion {

enum class TensorKind { kInput, kWeight, kConstant, kIntermediate, kOutput };

const char* TensorKindName(TensorKind kind);

struct TensorInfo {
  TensorId id = kInvalidTensor;
  std::string name;
  Shape shape;
  DType dtype = DType::kF16;
  TensorKind kind = TensorKind::kIntermediate;
  // For kConstant tensors: the splatted value.
  float constant_value = 0.0f;

  std::int64_t bytes() const { return shape.volume() * DTypeSize(dtype); }
};

class Graph {
 public:
  explicit Graph(std::string name = "graph") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  TensorId AddTensor(TensorInfo info);
  OpId AddOp(Op op);

  const std::vector<TensorInfo>& tensors() const { return tensors_; }
  const std::vector<Op>& ops() const { return ops_; }

  const TensorInfo& tensor(TensorId id) const { return tensors_[static_cast<size_t>(id)]; }
  TensorInfo& tensor(TensorId id) { return tensors_[static_cast<size_t>(id)]; }
  const Op& op(OpId id) const { return ops_[static_cast<size_t>(id)]; }

  // Op that produces `id`, or -1 for graph inputs/weights/constants.
  OpId producer(TensorId id) const { return producer_[static_cast<size_t>(id)]; }
  // Ops that read `id`.
  const std::vector<OpId>& consumers(TensorId id) const {
    return consumers_[static_cast<size_t>(id)];
  }

  std::vector<TensorId> InputIds() const;   // kInput tensors
  std::vector<TensorId> WeightIds() const;  // kWeight tensors
  std::vector<TensorId> OutputIds() const;  // kOutput tensors

  // Total FLOPs of all ops (matmul contraction counted).
  std::int64_t TotalFlops() const;
  // Bytes of all graph-boundary tensors (inputs + weights + outputs): the
  // minimum possible off-chip traffic of a perfectly fused implementation.
  std::int64_t BoundaryBytes() const;

  // Structural invariants: shapes consistent with op semantics, topological
  // op order, every output produced exactly once.
  Status Validate() const;

  // Graphs that compute the same thing up to tensor naming hash equal; used
  // for compile-once caching of repetitive subprograms (paper Sec. 5).
  std::uint64_t StructuralHash() const;

  // Like StructuralHash but ignoring tensor shapes: two instantiations of
  // the same operator topology collide. Used to count *distinct* fusion
  // patterns (paper Table 6).
  std::uint64_t TopologyHash() const;

  // Canonical rendering of the fields StructuralHash mixes plus every
  // tensor's name: two graphs have equal CanonicalForm iff they are
  // structurally identical and name their tensors alike. The engine's
  // program cache compares this on every fingerprint hit, so a program is
  // never served to a graph the executors would wire differently (they
  // hand tensors to kernels by name).
  std::string CanonicalForm() const;

  std::string ToString() const;

 private:
  std::string name_;
  std::vector<TensorInfo> tensors_;
  std::vector<Op> ops_;
  std::vector<OpId> producer_;
  std::vector<std::vector<OpId>> consumers_;
};

// Output shape implied by an op applied to input shapes. Malformed user
// input (wrong arity, incompatible broadcast, matmul rank/contraction
// mismatch) yields kInvalidArgument whose message carries the matching
// verifier code ("[SFV0103]" / "[SFV0107]") so callers surfacing it keep a
// machine-greppable diagnostic.
StatusOr<Shape> TryInferOpShape(OpKind kind, const OpAttrs& attrs,
                                const std::vector<Shape>& inputs);

// Like TryInferOpShape but dies on mismatch; for callers that have already
// validated their inputs.
Shape InferOpShape(OpKind kind, const OpAttrs& attrs, const std::vector<Shape>& inputs);

// Splits a graph into weakly-connected components, where ops are connected
// through *produced* tensors (sharing a graph input or weight does not
// connect two chains). Each component computes independent outputs and is
// fused into its own SMG: fusing disconnected chains into one kernel would
// make the fused computational space a cartesian product of unrelated dims.
// Returns the original graph unchanged when it is already connected.
std::vector<Graph> SplitConnectedComponents(const Graph& graph);

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_GRAPH_GRAPH_H_
