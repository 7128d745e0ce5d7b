#include "src/graph/graph.h"

#include <algorithm>
#include <functional>
#include <map>

#include "src/support/logging.h"
#include "src/support/string_util.h"

namespace spacefusion {

const char* TensorKindName(TensorKind kind) {
  switch (kind) {
    case TensorKind::kInput:
      return "input";
    case TensorKind::kWeight:
      return "weight";
    case TensorKind::kConstant:
      return "const";
    case TensorKind::kIntermediate:
      return "interm";
    case TensorKind::kOutput:
      return "output";
  }
  return "?";
}

TensorId Graph::AddTensor(TensorInfo info) {
  TensorId id = static_cast<TensorId>(tensors_.size());
  info.id = id;
  tensors_.push_back(std::move(info));
  producer_.push_back(-1);
  consumers_.emplace_back();
  return id;
}

OpId Graph::AddOp(Op op) {
  OpId id = static_cast<OpId>(ops_.size());
  op.id = id;
  SF_CHECK_NE(op.output, kInvalidTensor);
  producer_[static_cast<size_t>(op.output)] = id;
  for (TensorId in : op.inputs) {
    consumers_[static_cast<size_t>(in)].push_back(id);
  }
  ops_.push_back(std::move(op));
  return id;
}

namespace {
std::vector<TensorId> FilterTensors(const std::vector<TensorInfo>& tensors, TensorKind kind) {
  std::vector<TensorId> out;
  for (const TensorInfo& t : tensors) {
    if (t.kind == kind) {
      out.push_back(t.id);
    }
  }
  return out;
}
}  // namespace

std::vector<TensorId> Graph::InputIds() const { return FilterTensors(tensors_, TensorKind::kInput); }
std::vector<TensorId> Graph::WeightIds() const {
  return FilterTensors(tensors_, TensorKind::kWeight);
}
std::vector<TensorId> Graph::OutputIds() const {
  return FilterTensors(tensors_, TensorKind::kOutput);
}

std::int64_t Graph::TotalFlops() const {
  std::int64_t flops = 0;
  for (const Op& op : ops_) {
    const Shape& out = tensor(op.output).shape;
    std::int64_t contraction = 1;
    if (op.kind == OpKind::kMatMul) {
      const Shape& a = tensor(op.inputs[0]).shape;
      contraction = op.attrs.transpose_a ? a.dim(a.rank() - 2) : a.dim(a.rank() - 1);
    } else if (op.kind == OpKind::kReduce) {
      const Shape& in = tensor(op.inputs[0]).shape;
      contraction = in.dim(in.rank() - 1);
    }
    flops += OpFlops(op, out.volume(), contraction);
  }
  return flops;
}

std::int64_t Graph::BoundaryBytes() const {
  std::int64_t bytes = 0;
  for (const TensorInfo& t : tensors_) {
    if (t.kind == TensorKind::kInput || t.kind == TensorKind::kWeight ||
        t.kind == TensorKind::kOutput) {
      bytes += t.bytes();
    }
  }
  return bytes;
}

namespace {

// Broadcast result shape without the SF_CHECK abort of BroadcastShape:
// incompatible user shapes are an expected, reportable condition here.
StatusOr<Shape> TryBroadcastShape(const Shape& a, const Shape& b) {
  int rank = std::max(a.rank(), b.rank());
  std::vector<std::int64_t> dims(static_cast<size_t>(rank), 1);
  for (int i = 0; i < rank; ++i) {
    std::int64_t da = i < a.rank() ? a.dim(a.rank() - 1 - i) : 1;
    std::int64_t db = i < b.rank() ? b.dim(b.rank() - 1 - i) : 1;
    if (da != db && da != 1 && db != 1) {
      return InvalidArgument(StrCat("[SFV0103] incompatible broadcast: ", a.ToString(), " vs ",
                                    b.ToString()));
    }
    dims[static_cast<size_t>(rank - 1 - i)] = std::max(da, db);
  }
  return Shape(dims);
}

}  // namespace

StatusOr<Shape> TryInferOpShape(OpKind kind, const OpAttrs& attrs,
                                const std::vector<Shape>& inputs) {
  size_t want = (kind == OpKind::kUnary || kind == OpKind::kReduce) ? 1u : 2u;
  if (inputs.size() != want) {
    return InvalidArgument(StrCat("[SFV0107] ", OpKindName(kind), " expects ", want,
                                  " input(s), got ", inputs.size()));
  }
  switch (kind) {
    case OpKind::kMatMul: {
      const Shape& a = inputs[0];
      const Shape& b = inputs[1];
      if (a.rank() < 2 || b.rank() < 2) {
        return InvalidArgument(StrCat("[SFV0103] matmul operands need rank >= 2, got ",
                                      a.ToString(), " @ ", b.ToString()));
      }
      std::int64_t m = attrs.transpose_a ? a.dim(a.rank() - 1) : a.dim(a.rank() - 2);
      std::int64_t k = attrs.transpose_a ? a.dim(a.rank() - 2) : a.dim(a.rank() - 1);
      std::int64_t kb = attrs.transpose_b ? b.dim(b.rank() - 1) : b.dim(b.rank() - 2);
      std::int64_t n = attrs.transpose_b ? b.dim(b.rank() - 2) : b.dim(b.rank() - 1);
      if (k != kb) {
        return InvalidArgument(StrCat("[SFV0103] matmul contraction mismatch: ", a.ToString(),
                                      " @ ", b.ToString()));
      }
      Shape batch_a(std::vector<std::int64_t>(a.dims().begin(), a.dims().end() - 2));
      Shape batch_b(std::vector<std::int64_t>(b.dims().begin(), b.dims().end() - 2));
      SF_ASSIGN_OR_RETURN(Shape batch, TryBroadcastShape(batch_a, batch_b));
      std::vector<std::int64_t> dims = batch.dims();
      dims.push_back(m);
      dims.push_back(n);
      return Shape(dims);
    }
    case OpKind::kUnary:
      return inputs[0];
    case OpKind::kBinary:
      return TryBroadcastShape(inputs[0], inputs[1]);
    case OpKind::kReduce: {
      std::vector<std::int64_t> dims = inputs[0].dims();
      if (dims.empty()) {
        return InvalidArgument("[SFV0103] reduce needs a rank >= 1 operand");
      }
      dims.back() = 1;
      return Shape(dims);
    }
  }
  return Internal("unreachable op kind");
}

Shape InferOpShape(OpKind kind, const OpAttrs& attrs, const std::vector<Shape>& inputs) {
  StatusOr<Shape> shape = TryInferOpShape(kind, attrs, inputs);
  SF_CHECK(shape.ok()) << shape.status().ToString();
  return std::move(shape).value();
}

Status Graph::Validate() const {
  for (const Op& op : ops_) {
    std::vector<Shape> in_shapes;
    for (TensorId in : op.inputs) {
      if (in < 0 || in >= static_cast<TensorId>(tensors_.size())) {
        return Internal(StrCat("op ", op.name, " references invalid tensor ", in));
      }
      // Topological order: inputs must be graph-boundary or already produced.
      const TensorInfo& t = tensor(in);
      if (t.kind == TensorKind::kIntermediate || t.kind == TensorKind::kOutput) {
        OpId prod = producer(in);
        if (prod < 0 || prod >= op.id) {
          return Internal(StrCat("op ", op.name, " input ", t.name, " not yet produced"));
        }
      }
      in_shapes.push_back(t.shape);
    }
    StatusOr<Shape> expect = TryInferOpShape(op.kind, op.attrs, in_shapes);
    if (!expect.ok()) {
      return Internal(StrCat("op ", op.name, ": ", expect.status().message()));
    }
    if (expect.value() != tensor(op.output).shape) {
      return Internal(StrCat("op ", op.name, " output shape ", tensor(op.output).shape.ToString(),
                             " != inferred ", expect.value().ToString()));
    }
  }
  for (const TensorInfo& t : tensors_) {
    bool needs_producer =
        t.kind == TensorKind::kIntermediate || t.kind == TensorKind::kOutput;
    if (needs_producer && producer(t.id) < 0) {
      return Internal(StrCat("tensor ", t.name, " has no producer"));
    }
    if (!needs_producer && producer(t.id) >= 0) {
      return Internal(StrCat("boundary tensor ", t.name, " has a producer"));
    }
  }
  return Status::Ok();
}

std::uint64_t Graph::StructuralHash() const {
  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;  // FNV prime
  };
  for (const TensorInfo& t : tensors_) {
    mix(static_cast<std::uint64_t>(t.kind));
    mix(static_cast<std::uint64_t>(t.dtype));
    for (std::int64_t d : t.shape.dims()) {
      mix(static_cast<std::uint64_t>(d));
    }
  }
  for (const Op& op : ops_) {
    mix(static_cast<std::uint64_t>(op.kind));
    mix(static_cast<std::uint64_t>(op.attrs.unary));
    mix(static_cast<std::uint64_t>(op.attrs.binary));
    mix(static_cast<std::uint64_t>(op.attrs.reduce));
    mix(op.attrs.transpose_a ? 7u : 3u);
    mix(op.attrs.transpose_b ? 11u : 5u);
    for (TensorId in : op.inputs) {
      mix(static_cast<std::uint64_t>(in) + 17u);
    }
    mix(static_cast<std::uint64_t>(op.output) + 31u);
  }
  return h;
}

std::vector<Graph> SplitConnectedComponents(const Graph& graph) {
  const int num_ops = static_cast<int>(graph.ops().size());
  // Union-find over ops, joined through produced tensors.
  std::vector<int> parent(static_cast<size_t>(num_ops));
  for (int i = 0; i < num_ops; ++i) {
    parent[static_cast<size_t>(i)] = i;
  }
  std::function<int(int)> find = [&](int x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  };
  for (const Op& op : graph.ops()) {
    for (TensorId in : op.inputs) {
      OpId prod = graph.producer(in);
      if (prod >= 0) {
        parent[static_cast<size_t>(find(prod))] = find(op.id);
      }
    }
  }

  std::map<int, std::vector<OpId>> components;
  for (int i = 0; i < num_ops; ++i) {
    components[find(i)].push_back(i);
  }
  if (components.size() <= 1) {
    return {graph};
  }

  std::vector<Graph> out;
  int index = 0;
  for (const auto& [root, op_ids] : components) {
    Graph component(StrCat(graph.name(), ".c", index++));
    std::vector<TensorId> imported(graph.tensors().size(), kInvalidTensor);
    auto import_tensor = [&](TensorId old) {
      if (imported[static_cast<size_t>(old)] != kInvalidTensor) {
        return imported[static_cast<size_t>(old)];
      }
      TensorId fresh = component.AddTensor(graph.tensor(old));
      imported[static_cast<size_t>(old)] = fresh;
      return fresh;
    };
    for (OpId id : op_ids) {
      Op copy = graph.op(id);
      std::vector<TensorId> inputs;
      inputs.reserve(copy.inputs.size());
      for (TensorId in : copy.inputs) {
        inputs.push_back(import_tensor(in));
      }
      copy.inputs = std::move(inputs);
      copy.output = import_tensor(copy.output);
      component.AddOp(std::move(copy));
    }
    Status st = component.Validate();
    SF_CHECK(st.ok()) << st.ToString();
    out.push_back(std::move(component));
  }
  return out;
}

std::uint64_t Graph::TopologyHash() const {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const Op& op : ops_) {
    mix(static_cast<std::uint64_t>(op.kind));
    mix(static_cast<std::uint64_t>(op.attrs.unary));
    mix(static_cast<std::uint64_t>(op.attrs.binary));
    mix(static_cast<std::uint64_t>(op.attrs.reduce));
    for (TensorId in : op.inputs) {
      OpId prod = producer(in);
      // Encode dataflow structure via producing-op indices, not tensor ids.
      mix(static_cast<std::uint64_t>(prod + 2));
      mix(static_cast<std::uint64_t>(tensor(in).kind));
    }
  }
  return h;
}

std::string Graph::CanonicalForm() const {
  std::ostringstream out;
  for (const TensorInfo& t : tensors_) {
    // Length-prefixed, so no name can spell the fields that follow it.
    out << "t" << static_cast<int>(t.kind) << "." << static_cast<int>(t.dtype) << "."
        << t.name.size() << "'" << t.name << ":";
    for (std::int64_t d : t.shape.dims()) {
      out << d << ",";
    }
    out << ";";
  }
  for (const Op& op : ops_) {
    out << "o" << static_cast<int>(op.kind) << "." << static_cast<int>(op.attrs.unary) << "."
        << static_cast<int>(op.attrs.binary) << "." << static_cast<int>(op.attrs.reduce) << "."
        << (op.attrs.transpose_a ? 1 : 0) << (op.attrs.transpose_b ? 1 : 0) << ":";
    for (TensorId in : op.inputs) {
      out << in << ",";
    }
    out << ">" << op.output << ";";
  }
  return out.str();
}

std::string Graph::ToString() const {
  std::ostringstream out;
  out << "graph " << name_ << " {\n";
  for (const TensorInfo& t : tensors_) {
    out << "  %" << t.id << " " << t.name << " : " << t.shape.ToString() << " "
        << TensorKindName(t.kind) << "\n";
  }
  for (const Op& op : ops_) {
    out << "  " << op.name << " = " << OpKindName(op.kind) << "(";
    out << StrJoin(op.inputs, ", ");
    out << ") -> %" << op.output << "\n";
  }
  out << "}";
  return out.str();
}

}  // namespace spacefusion
