// C++ kernel emission. The emitted code mirrors the schedule interpreter
// (src/exec/schedule_executor.cc) and the reference tensor kernels
// (src/tensor/tensor_ops.cc) operation for operation: same scalar formulas,
// same accumulation order, same temporal intra-block structure. Any change
// to either of those files that affects evaluation order must be reflected
// here (and bumps kEmitterVersion so cached shared objects self-invalidate).
#include "src/codegen/cpp_codegen.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/support/binary_io.h"
#include "src/support/logging.h"

namespace spacefusion {

std::uint64_t CppCodegenOptionsDigest(const CppCodegenOptions& options) {
  // Fixed byte strings (comments on; inlining off exactly in reference
  // mode) that kernel keys, symbols and cached .sfk.so files depend on.
  return Fnv1a64(options.reference_mode ? "sfcpp-options-v1|c1|f0|r1"
                                        : "sfcpp-options-v1|c1|f1|r0");
}

namespace {

// Emitter revision: mixed into every kernel key so stale cached .so files
// from an older emitter can never be served for a new emission scheme.
constexpr const char* kEmitterVersion = "sfcpp-v1";

std::string I64(std::int64_t v) { return std::to_string(v); }

std::vector<std::int64_t> RowMajorStrides(const std::vector<std::int64_t>& dims) {
  std::vector<std::int64_t> strides(dims.size(), 1);
  for (int i = static_cast<int>(dims.size()) - 2; i >= 0; --i) {
    strides[static_cast<size_t>(i)] =
        strides[static_cast<size_t>(i) + 1] * dims[static_cast<size_t>(i) + 1];
  }
  return strides;
}

std::int64_t Volume(const std::vector<std::int64_t>& dims) {
  std::int64_t v = 1;
  for (std::int64_t d : dims) {
    v *= d;
  }
  return v;
}

// How to address one tensor (or running buffer) inside the current pass:
// logical dims in the pass's frame plus the storage strides (which differ
// from the compact strides when a boundary tensor is read in place through
// a temporal-slice base offset).
struct Layout {
  std::string base;
  std::string base_offset;  // "" or "s0 * <stride>"
  std::vector<std::int64_t> dims;
  std::vector<std::int64_t> strides;
};

class CppEmitter {
 public:
  CppEmitter(const SmgSchedule& schedule, const CppCodegenOptions& options)
      : s_(schedule), g_(schedule.graph), opt_(options) {}

  StatusOr<CppKernel> Emit();

 private:
  // ---- planning ----
  void PlanAbi();
  void PlanInline();
  void PlanBuffers();
  void Alloc(const std::string& name, std::int64_t floats);

  const ReductionAggregation* AggOf(OpId op) const {
    auto it = agg_of_.find(op);
    return it == agg_of_.end() ? nullptr : it->second;
  }
  bool IsBoundary(TensorId t) const {
    TensorKind k = g_.tensor(t).kind;
    return k == TensorKind::kInput || k == TensorKind::kWeight || k == TensorKind::kConstant;
  }
  // Axis of `t` along the temporal dim (-1 when not temporally sliced).
  int TAxis(TensorId t) const { return temporal_ ? s_.built.AxisOfDim(t, tdim_) : -1; }
  bool IsStreamedOutput(TensorId t) const {
    return temporal_ && g_.tensor(t).kind == TensorKind::kOutput && TAxis(t) >= 0;
  }
  // Dims of `t` in the current pass's frame: the full shape with the
  // temporal axis (if any) replaced by the pass width.
  std::vector<std::int64_t> SliceDims(TensorId t, std::int64_t width) const;
  Layout ReadLayout(TensorId t, std::int64_t width) const;
  // Where the running reduction of `op` publishes to consumers.
  Layout PublishedLayout(OpId op) const;
  Layout FullLayout(const std::string& base, const std::vector<std::int64_t>& dims) const;

  // ---- emission ----
  void Line(const std::string& text);
  void Comment(const std::string& text);
  std::string NewVar(const char* stem);
  std::string Idx(const Layout& lay, const std::vector<std::string>& coords) const;
  int OpenLoops(const std::vector<std::int64_t>& dims, std::vector<std::string>* coords);
  void CloseLoops(int opened);
  std::vector<std::string> MapCoords(const std::vector<std::int64_t>& from_dims,
                                     const std::vector<std::string>& coords,
                                     const std::vector<std::int64_t>& to_dims) const;

  std::string EmitLoad(TensorId t, const std::vector<std::string>& coords, std::int64_t width);
  std::string EmitLoadMapped(TensorId t, const std::vector<std::int64_t>& frame,
                             const std::vector<std::string>& coords, std::int64_t width);
  std::string EmitScalarOp(const Op& op, const std::vector<std::int64_t>& frame,
                           const std::vector<std::string>& coords, std::int64_t width);

  Status EmitOp(const Op& op, std::int64_t width);
  void EmitElementwise(const Op& op, std::int64_t width);
  void EmitReduceTo(const Op& op, ReduceKind kind, const Layout& out, std::int64_t width);
  Status EmitMatMulTo(const Op& op, const Layout& out, std::int64_t width);
  Status EmitAggregated(const Op& op, const ReductionAggregation& agg, std::int64_t width);
  void EmitStreamCopy(TensorId t, std::int64_t width);
  Status EmitBlockBody(std::int64_t width);
  void EmitCopy(const Layout& dst, const Layout& src);

  const SmgSchedule& s_;
  const Graph& g_;
  CppCodegenOptions opt_;

  bool temporal_ = false;
  DimId tdim_ = kNoDim;
  std::int64_t extent_ = 0;
  std::int64_t step_ = 0;

  std::map<OpId, const ReductionAggregation*> agg_of_;
  std::set<OpId> factor_sources_;
  std::vector<bool> inlined_;
  std::vector<int> abi_in_;   // per TensorId: in[] slot or -1
  std::vector<int> abi_out_;  // per TensorId: out[] slot or -1
  std::vector<TensorId> input_ids_;
  std::vector<TensorId> output_ids_;

  std::vector<std::pair<std::string, std::int64_t>> scratch_bufs_;  // (name, offset)
  std::int64_t scratch_floats_ = 0;

  std::string body_;
  int indent_ = 1;
  int var_counter_ = 0;
};

std::vector<std::int64_t> CppEmitter::SliceDims(TensorId t, std::int64_t width) const {
  std::vector<std::int64_t> dims = g_.tensor(t).shape.dims();
  int axis = TAxis(t);
  if (axis >= 0) {
    dims[static_cast<size_t>(axis)] = width;
  }
  return dims;
}

Layout CppEmitter::FullLayout(const std::string& base,
                              const std::vector<std::int64_t>& dims) const {
  Layout lay;
  lay.base = base;
  lay.dims = dims;
  lay.strides = RowMajorStrides(dims);
  return lay;
}

Layout CppEmitter::PublishedLayout(OpId op) const {
  const ReductionAggregation* agg = AggOf(op);
  SF_CHECK(agg != nullptr);
  const std::string base =
      (agg->finalize_divide_by_extent ? "pub_o" : "acc_o") + I64(op);
  return FullLayout(base, g_.tensor(g_.op(op).output).shape.dims());
}

Layout CppEmitter::ReadLayout(TensorId t, std::int64_t width) const {
  const TensorInfo& info = g_.tensor(t);
  if (IsBoundary(t)) {
    // Boundary tensors are read in place: slice dims, full-shape strides,
    // and a temporal base offset instead of a materialized slice copy.
    Layout lay;
    lay.base = "i_t" + I64(t);
    lay.dims = SliceDims(t, width);
    lay.strides = RowMajorStrides(info.shape.dims());
    int axis = TAxis(t);
    if (axis >= 0) {
      lay.base_offset = "s0 * " + I64(lay.strides[static_cast<size_t>(axis)]);
    }
    return lay;
  }
  OpId producer = g_.producer(t);
  if (temporal_ && AggOf(producer) != nullptr) {
    return PublishedLayout(producer);
  }
  if (!temporal_ && info.kind == TensorKind::kOutput) {
    return FullLayout("o_t" + I64(t), info.shape.dims());
  }
  return FullLayout("s_t" + I64(t), SliceDims(t, width));
}

void CppEmitter::PlanAbi() {
  abi_in_.assign(g_.tensors().size(), -1);
  abi_out_.assign(g_.tensors().size(), -1);
  for (const TensorInfo& t : g_.tensors()) {
    if (IsBoundary(t.id)) {
      abi_in_[static_cast<size_t>(t.id)] = static_cast<int>(input_ids_.size());
      input_ids_.push_back(t.id);
    } else if (t.kind == TensorKind::kOutput) {
      abi_out_[static_cast<size_t>(t.id)] = static_cast<int>(output_ids_.size());
      output_ids_.push_back(t.id);
    }
  }
}

void CppEmitter::PlanInline() {
  inlined_.assign(g_.tensors().size(), false);
  if (opt_.reference_mode) {
    return;
  }
  for (const Op& op : g_.ops()) {
    if (op.kind != OpKind::kUnary && op.kind != OpKind::kBinary) {
      continue;
    }
    const TensorInfo& out = g_.tensor(op.output);
    if (out.kind != TensorKind::kIntermediate) {
      continue;
    }
    const std::vector<OpId>& consumers = g_.consumers(op.output);
    if (consumers.size() != 1) {
      continue;
    }
    const Op& consumer = g_.op(consumers[0]);
    int reads = 0;
    for (TensorId in : consumer.inputs) {
      if (in == op.output) {
        ++reads;
      }
    }
    if (reads != 1) {
      continue;
    }
    // Inlining is legal only when the consumer evaluates every element of
    // this input exactly once: unary and reduce always do; binary does
    // unless broadcasting replays the element; matmul never does.
    bool once = false;
    switch (consumer.kind) {
      case OpKind::kUnary:
      case OpKind::kReduce:
        once = true;
        break;
      case OpKind::kBinary:
        once = g_.tensor(consumer.output).shape == out.shape;
        break;
      case OpKind::kMatMul:
        once = false;
        break;
    }
    if (once) {
      inlined_[static_cast<size_t>(op.output)] = true;
    }
  }
}

void CppEmitter::Alloc(const std::string& name, std::int64_t floats) {
  scratch_floats_ = (scratch_floats_ + 15) & ~static_cast<std::int64_t>(15);
  scratch_bufs_.emplace_back(name, scratch_floats_);
  scratch_floats_ += std::max<std::int64_t>(floats, 1);
}

void CppEmitter::PlanBuffers() {
  for (const Op& op : g_.ops()) {
    const ReductionAggregation* agg = temporal_ ? AggOf(op.id) : nullptr;
    if (agg != nullptr) {
      const std::int64_t vol = g_.tensor(op.output).shape.volume();
      Alloc("acc_o" + I64(op.id), vol);
      Alloc("loc_o" + I64(op.id), vol);
      if (agg->finalize_divide_by_extent) {
        Alloc("pub_o" + I64(op.id), vol);
      }
      if (factor_sources_.count(op.id) > 0) {
        Alloc("old_o" + I64(op.id), vol);
      }
      continue;
    }
    TensorId t = op.output;
    if (inlined_[static_cast<size_t>(t)]) {
      continue;
    }
    if (!temporal_ && g_.tensor(t).kind == TensorKind::kOutput) {
      continue;  // written straight into out[]
    }
    Alloc("s_t" + I64(t), Volume(SliceDims(t, step_)));
  }
}

void CppEmitter::Line(const std::string& text) {
  body_.append(static_cast<size_t>(indent_) * 2, ' ');
  body_ += text;
  body_ += '\n';
}

void CppEmitter::Comment(const std::string& text) { Line("// " + text); }

std::string CppEmitter::NewVar(const char* stem) { return stem + I64(var_counter_++); }

std::string CppEmitter::Idx(const Layout& lay, const std::vector<std::string>& coords) const {
  SF_CHECK_EQ(coords.size(), lay.dims.size());
  std::string off;
  auto add = [&off](const std::string& term) {
    if (!off.empty()) {
      off += " + ";
    }
    off += term;
  };
  if (!lay.base_offset.empty()) {
    add(lay.base_offset);
  }
  for (size_t a = 0; a < coords.size(); ++a) {
    if (coords[a] == "0") {
      continue;
    }
    add(lay.strides[a] == 1 ? coords[a] : coords[a] + " * " + I64(lay.strides[a]));
  }
  if (off.empty()) {
    off = "0";
  }
  return lay.base + "[" + off + "]";
}

int CppEmitter::OpenLoops(const std::vector<std::int64_t>& dims,
                          std::vector<std::string>* coords) {
  int opened = 0;
  for (std::int64_t d : dims) {
    if (d == 1) {
      coords->push_back("0");
      continue;
    }
    std::string v = NewVar("i");
    Line("for (std::int64_t " + v + " = 0; " + v + " < " + I64(d) + "; ++" + v + ") {");
    ++indent_;
    ++opened;
    coords->push_back(v);
  }
  return opened;
}

void CppEmitter::CloseLoops(int opened) {
  for (int i = 0; i < opened; ++i) {
    --indent_;
    Line("}");
  }
}

std::vector<std::string> CppEmitter::MapCoords(const std::vector<std::int64_t>& from_dims,
                                               const std::vector<std::string>& coords,
                                               const std::vector<std::int64_t>& to_dims) const {
  // Numpy-style right-aligned broadcast: extent-1 axes pin to 0.
  const int shift = static_cast<int>(from_dims.size()) - static_cast<int>(to_dims.size());
  SF_CHECK_GE(shift, 0);
  std::vector<std::string> mapped(to_dims.size());
  for (size_t a = 0; a < to_dims.size(); ++a) {
    mapped[a] = to_dims[a] == 1 ? "0" : coords[a + static_cast<size_t>(shift)];
  }
  return mapped;
}

std::string CppEmitter::EmitLoad(TensorId t, const std::vector<std::string>& coords,
                                 std::int64_t width) {
  if (inlined_[static_cast<size_t>(t)]) {
    return EmitScalarOp(g_.op(g_.producer(t)), SliceDims(t, width), coords, width);
  }
  Layout lay = ReadLayout(t, width);
  std::string v = NewVar("v");
  Line("const float " + v + " = " + Idx(lay, coords) + ";");
  return v;
}

std::string CppEmitter::EmitLoadMapped(TensorId t, const std::vector<std::int64_t>& frame,
                                       const std::vector<std::string>& coords,
                                       std::int64_t width) {
  return EmitLoad(t, MapCoords(frame, coords, SliceDims(t, width)), width);
}

namespace detail {

std::string UnaryExpr(UnaryKind kind, const std::string& x) {
  switch (kind) {
    case UnaryKind::kExp:
      return "std::exp(" + x + ")";
    case UnaryKind::kRelu:
      return "(" + x + " > 0.0f ? " + x + " : 0.0f)";
    case UnaryKind::kGelu:
      return "0.5f * " + x + " * (1.0f + std::tanh(0.7978845608f * (" + x + " + 0.044715f * " +
             x + " * " + x + " * " + x + ")))";
    case UnaryKind::kSigmoid:
      return "1.0f / (1.0f + std::exp(-" + x + "))";
    case UnaryKind::kTanh:
      return "std::tanh(" + x + ")";
    case UnaryKind::kSqrt:
      return "std::sqrt(" + x + ")";
    case UnaryKind::kRsqrt:
      return "1.0f / std::sqrt(" + x + ")";
    case UnaryKind::kNeg:
      return "-" + x;
    case UnaryKind::kSquare:
      return x + " * " + x;
    case UnaryKind::kRecip:
      return "1.0f / " + x;
  }
  return x;
}

std::string BinaryExpr(BinaryKind kind, const std::string& a, const std::string& b) {
  switch (kind) {
    case BinaryKind::kAdd:
      return a + " + " + b;
    case BinaryKind::kSub:
      return a + " - " + b;
    case BinaryKind::kMul:
      return a + " * " + b;
    case BinaryKind::kDiv:
      return a + " / " + b;
    case BinaryKind::kMax:
      return "(" + a + " > " + b + " ? " + a + " : " + b + ")";
  }
  return a;
}

}  // namespace detail

std::string CppEmitter::EmitScalarOp(const Op& op, const std::vector<std::int64_t>& frame,
                                     const std::vector<std::string>& coords,
                                     std::int64_t width) {
  std::string r = NewVar("v");
  if (op.kind == OpKind::kUnary) {
    std::string x = EmitLoadMapped(op.inputs[0], frame, coords, width);
    Line("const float " + r + " = " + detail::UnaryExpr(op.attrs.unary, x) + ";");
  } else {
    SF_CHECK(op.kind == OpKind::kBinary);
    std::string a = EmitLoadMapped(op.inputs[0], frame, coords, width);
    std::string b = EmitLoadMapped(op.inputs[1], frame, coords, width);
    Line("const float " + r + " = " + detail::BinaryExpr(op.attrs.binary, a, b) + ";");
  }
  return r;
}

void CppEmitter::EmitElementwise(const Op& op, std::int64_t width) {
  Layout out = ReadLayout(op.output, width);
  std::vector<std::string> coords;
  int opened = OpenLoops(out.dims, &coords);
  std::string v = EmitScalarOp(op, out.dims, coords, width);
  Line(Idx(out, coords) + " = " + v + ";");
  CloseLoops(opened);
}

void CppEmitter::EmitReduceTo(const Op& op, ReduceKind kind, const Layout& out,
                              std::int64_t width) {
  TensorId in = op.inputs[0];
  const std::vector<std::int64_t> in_dims = SliceDims(in, width);
  SF_CHECK_GE(in_dims.size(), 1u);
  const std::int64_t last = in_dims.back();
  std::vector<std::int64_t> outer(in_dims.begin(), in_dims.end() - 1);

  std::vector<std::string> coords;
  int opened = OpenLoops(outer, &coords);
  std::string acc = NewVar("acc");
  Line("float " + acc + " = " +
       (kind == ReduceKind::kMax ? "-std::numeric_limits<float>::infinity()" : "0.0f") + ";");
  std::string r = NewVar("r");
  Line("for (std::int64_t " + r + " = 0; " + r + " < " + I64(last) + "; ++" + r + ") {");
  ++indent_;
  std::vector<std::string> in_coords = coords;
  in_coords.push_back(r);
  std::string x = EmitLoad(in, in_coords, width);
  if (kind == ReduceKind::kMax) {
    Line(acc + " = std::max(" + acc + ", " + x + ");");
  } else {
    Line(acc + " += " + x + ";");
  }
  --indent_;
  Line("}");
  if (kind == ReduceKind::kMean) {
    Line(acc + " /= static_cast<float>(" + I64(last) + ");");
  }
  std::vector<std::string> out_coords = coords;
  out_coords.push_back("0");
  Line(Idx(out, out_coords) + " = " + acc + ";");
  CloseLoops(opened);
}

Status CppEmitter::EmitMatMulTo(const Op& op, const Layout& out, std::int64_t width) {
  Layout a = ReadLayout(op.inputs[0], width);
  Layout b = ReadLayout(op.inputs[1], width);
  const bool tra = op.attrs.transpose_a;
  const bool trb = op.attrs.transpose_b;
  const int ra = static_cast<int>(a.dims.size());
  const int rb = static_cast<int>(b.dims.size());
  const int ro = static_cast<int>(out.dims.size());
  if (ra < 2 || rb < 2 || ro < 2) {
    return Internal("cpp_codegen: matmul operand rank < 2");
  }
  const std::int64_t m = tra ? a.dims[static_cast<size_t>(ra - 1)] : a.dims[static_cast<size_t>(ra - 2)];
  const std::int64_t k = tra ? a.dims[static_cast<size_t>(ra - 2)] : a.dims[static_cast<size_t>(ra - 1)];
  const std::int64_t n = trb ? b.dims[static_cast<size_t>(rb - 2)] : b.dims[static_cast<size_t>(rb - 1)];

  // Index helper: batch coords (right-aligned, broadcast) + matrix coords.
  auto elem = [&](const Layout& lay, int rank, const std::vector<std::string>& batch,
                  const std::string& row, const std::string& col) {
    std::vector<std::string> cs(static_cast<size_t>(rank));
    const int nbatch = rank - 2;
    const int shift = (ro - 2) - nbatch;
    for (int ax = 0; ax < nbatch; ++ax) {
      cs[static_cast<size_t>(ax)] =
          lay.dims[static_cast<size_t>(ax)] == 1 ? "0" : batch[static_cast<size_t>(ax + shift)];
    }
    cs[static_cast<size_t>(rank - 2)] = row;
    cs[static_cast<size_t>(rank - 1)] = col;
    return Idx(lay, cs);
  };

  std::vector<std::int64_t> batch_dims(out.dims.begin(), out.dims.end() - 2);
  std::vector<std::string> batch;
  int opened = OpenLoops(batch_dims, &batch);

  std::string iv = NewVar("i");
  Line("for (std::int64_t " + iv + " = 0; " + iv + " < " + I64(m) + "; ++" + iv + ") {");
  ++indent_;
  auto out_elem = [&](const std::string& jv) {
    std::vector<std::string> cs = batch;
    cs.push_back(iv);
    cs.push_back(jv);
    return Idx(out, cs);
  };
  auto a_elem = [&](const std::string& kv) {
    return elem(a, ra, batch, tra ? kv : iv, tra ? iv : kv);
  };
  if (trb) {
    // B is [.., N, K]: the contraction is contiguous in both operands, so a
    // per-(i, j) dot product vectorizes cleanly. The accumulation order
    // (ascending kk from 0.0f) matches the reference MatMul exactly.
    std::string jv = NewVar("j");
    Line("for (std::int64_t " + jv + " = 0; " + jv + " < " + I64(n) + "; ++" + jv + ") {");
    ++indent_;
    std::string acc = NewVar("acc");
    Line("float " + acc + " = 0.0f;");
    std::string kv = NewVar("kk");
    Line("for (std::int64_t " + kv + " = 0; " + kv + " < " + I64(k) + "; ++" + kv + ") {");
    ++indent_;
    Line(acc + " += " + a_elem(kv) + " * " + elem(b, rb, batch, jv, kv) + ";");
    --indent_;
    Line("}");
    Line(out_elem(jv) + " = " + acc + ";");
    --indent_;
    Line("}");
  } else {
    // B is [.., K, N]: iterate kk outer and stream the contiguous N rows
    // (saxpy form). Each C[i, j] still accumulates ascending in kk from
    // 0.0f, so the result is bit-identical to the dot form.
    std::string jv0 = NewVar("j");
    Line("for (std::int64_t " + jv0 + " = 0; " + jv0 + " < " + I64(n) + "; ++" + jv0 + ") {");
    ++indent_;
    Line(out_elem(jv0) + " = 0.0f;");
    --indent_;
    Line("}");
    std::string kv = NewVar("kk");
    Line("for (std::int64_t " + kv + " = 0; " + kv + " < " + I64(k) + "; ++" + kv + ") {");
    ++indent_;
    std::string av = NewVar("v");
    Line("const float " + av + " = " + a_elem(kv) + ";");
    std::string jv = NewVar("j");
    Line("for (std::int64_t " + jv + " = 0; " + jv + " < " + I64(n) + "; ++" + jv + ") {");
    ++indent_;
    Line(out_elem(jv) + " += " + av + " * " + elem(b, rb, batch, kv, jv) + ";");
    --indent_;
    Line("}");
    --indent_;
    Line("}");
  }
  --indent_;
  Line("}");
  CloseLoops(opened);
  return Status::Ok();
}

void CppEmitter::EmitStreamCopy(TensorId t, std::int64_t width) {
  Comment("stream t" + I64(t) + " slice into the full output buffer");
  Layout src = ReadLayout(t, width);
  Layout dst;
  dst.base = "o_t" + I64(t);
  dst.dims = src.dims;
  dst.strides = RowMajorStrides(g_.tensor(t).shape.dims());
  int axis = TAxis(t);
  SF_CHECK_GE(axis, 0);
  dst.base_offset = "s0 * " + I64(dst.strides[static_cast<size_t>(axis)]);
  EmitCopy(dst, src);
}

void CppEmitter::EmitCopy(const Layout& dst, const Layout& src) {
  std::vector<std::string> coords;
  int opened = OpenLoops(src.dims, &coords);
  Line(Idx(dst, coords) + " = " + Idx(src, coords) + ";");
  CloseLoops(opened);
}

Status CppEmitter::EmitOp(const Op& op, std::int64_t width) {
  Comment("op" + I64(op.id) + " " + op.name + ": " + OpKindName(op.kind) + " -> t" +
          I64(op.output) + " " + g_.tensor(op.output).shape.ToString());
  switch (op.kind) {
    case OpKind::kUnary:
    case OpKind::kBinary:
      EmitElementwise(op, width);
      break;
    case OpKind::kReduce:
      EmitReduceTo(op, op.attrs.reduce, ReadLayout(op.output, width), width);
      break;
    case OpKind::kMatMul:
      SF_RETURN_IF_ERROR(EmitMatMulTo(op, ReadLayout(op.output, width), width));
      break;
  }
  if (IsStreamedOutput(op.output)) {
    EmitStreamCopy(op.output, width);
  }
  return Status::Ok();
}

Status CppEmitter::EmitAggregated(const Op& op, const ReductionAggregation& agg,
                                  std::int64_t width) {
  Comment("op" + I64(op.id) + " " + op.name + ": running " + OpKindName(op.kind) +
          " over the temporal dim (UTA)");
  const std::vector<std::int64_t> out_dims = g_.tensor(op.output).shape.dims();
  Layout loc = FullLayout("loc_o" + I64(op.id), out_dims);

  // Local contribution of this intra-block's slice.
  if (op.kind == OpKind::kMatMul) {
    SF_RETURN_IF_ERROR(EmitMatMulTo(op, loc, width));
  } else if (agg.finalize_divide_by_extent) {
    EmitReduceTo(op, ReduceKind::kSum, loc, width);  // raw partial sum
  } else {
    EmitReduceTo(op, op.attrs.reduce, loc, width);
  }

  // Update-then-Aggregate: rescale the old running value so it is
  // consistent with the freshest dependee reductions, then combine.
  Layout acc = FullLayout("acc_o" + I64(op.id), out_dims);
  std::vector<std::string> coords;
  int opened = OpenLoops(out_dims, &coords);
  std::string u = NewVar("u");
  Line("float " + u + " = " + Idx(acc, coords) + ";");
  for (const UpdateFactor& factor : agg.update) {
    const std::vector<std::int64_t> src_dims =
        g_.tensor(g_.op(factor.source).output).shape.dims();
    std::vector<std::string> sc = MapCoords(out_dims, coords, src_dims);
    Layout old_lay = FullLayout("old_o" + I64(factor.source), src_dims);
    Layout new_lay = PublishedLayout(factor.source);
    std::string ov = NewVar("v");
    Line("const float " + ov + " = " + Idx(old_lay, sc) + ";");
    std::string nv = NewVar("v");
    Line("const float " + nv + " = " + Idx(new_lay, sc) + ";");
    std::string mult = NewVar("mul");
    if (factor.prim == FactorPrim::kExpNeg) {
      Line("const float " + mult + " = std::exp(" + I64(factor.power) + ".0f * (" + ov +
           " - " + nv + "));");
    } else {
      std::string ratio = NewVar("rat");
      Line("const float " + ratio + " = " + nv + " / " + ov + ";");
      std::string res = NewVar("res");
      Line("float " + res + " = 1.0f;");
      const int reps = factor.power < 0 ? -factor.power : factor.power;
      for (int p = 0; p < reps; ++p) {
        Line(res + " *= " + ratio + ";");
      }
      if (factor.power < 0) {
        Line(res + " = 1.0f / " + res + ";");
      }
      Line("const float " + mult + " = " + res + ";");
    }
    Line(u + " = " + u + " * " + mult + ";");
  }
  std::string lv = NewVar("v");
  Line("const float " + lv + " = " + Idx(loc, coords) + ";");
  if (agg.combiner == ReduceOpKind::kMax) {
    Line(Idx(acc, coords) + " = (" + u + " > " + lv + " ? " + u + " : " + lv + ");");
  } else {
    Line(Idx(acc, coords) + " = " + u + " + " + lv + ";");
  }
  CloseLoops(opened);

  if (agg.finalize_divide_by_extent) {
    Comment("publish the running mean: acc * (1 / processed)");
    std::string inv = NewVar("inv");
    Line("const float " + inv + " = 1.0f / static_cast<float>(processed);");
    Layout pub = FullLayout("pub_o" + I64(op.id), out_dims);
    std::vector<std::string> pc;
    int po = OpenLoops(out_dims, &pc);
    Line(Idx(pub, pc) + " = " + Idx(acc, pc) + " * " + inv + ";");
    CloseLoops(po);
  }
  return Status::Ok();
}

Status CppEmitter::EmitBlockBody(std::int64_t width) {
  Line("(void)s0;");
  Line("processed += " + I64(width) + ";");
  // published_old snapshots live in the old_o buffers: zeroed before the
  // loop (the interpreter initializes `published` to zeros) and refreshed
  // at the end of each block body.
  for (const Op& op : g_.ops()) {
    const ReductionAggregation* agg = AggOf(op.id);
    if (agg == nullptr) {
      if (!inlined_[static_cast<size_t>(op.output)]) {
        SF_RETURN_IF_ERROR(EmitOp(op, width));
      }
      continue;
    }
    SF_RETURN_IF_ERROR(EmitAggregated(op, *agg, width));
  }
  for (OpId source : factor_sources_) {
    Comment("capture published value of op" + I64(source) + " for the next block's updates");
    EmitCopy(FullLayout("old_o" + I64(source), g_.tensor(g_.op(source).output).shape.dims()),
             PublishedLayout(source));
  }
  return Status::Ok();
}

StatusOr<CppKernel> CppEmitter::Emit() {
  temporal_ = !opt_.reference_mode && s_.has_temporal && s_.NumIntraBlocks() > 1;
  if (temporal_) {
    tdim_ = s_.temporal.dim;
    extent_ = s_.built.smg.dim(tdim_).extent;
    step_ = s_.temporal.block;
    for (const ReductionAggregation& agg : s_.plan.aggregations) {
      agg_of_[agg.op] = &agg;
      for (const UpdateFactor& factor : agg.update) {
        factor_sources_.insert(factor.source);
      }
    }
  }
  for (const Op& op : g_.ops()) {
    if (op.kind == OpKind::kMatMul &&
        (g_.tensor(op.inputs[0]).shape.rank() < 2 || g_.tensor(op.inputs[1]).shape.rank() < 2)) {
      return Internal("cpp_codegen: matmul operand rank < 2 in " + g_.name());
    }
  }

  PlanAbi();
  PlanInline();
  PlanBuffers();

  // ---- function body ----
  for (TensorId t : input_ids_) {
    Line("const float* __restrict__ i_t" + I64(t) + " = in[" +
         I64(abi_in_[static_cast<size_t>(t)]) + "];");
  }
  for (TensorId t : output_ids_) {
    Line("float* __restrict__ o_t" + I64(t) + " = out[" +
         I64(abi_out_[static_cast<size_t>(t)]) + "];");
  }
  for (const auto& [name, offset] : scratch_bufs_) {
    Line("float* __restrict__ " + name + " = scratch + " + I64(offset) + ";");
  }
  if (input_ids_.empty()) {
    Line("(void)in;");
  }
  if (scratch_bufs_.empty()) {
    Line("(void)scratch;");
  }

  if (!temporal_) {
    for (const Op& op : g_.ops()) {
      if (!inlined_[static_cast<size_t>(op.output)]) {
        SF_RETURN_IF_ERROR(EmitOp(op, /*width=*/0));
      }
    }
  } else {
    // Running-state initialization (mirrors the interpreter: max combiners
    // start at -inf, sums at zero, published snapshots at zero).
    for (const ReductionAggregation& agg : s_.plan.aggregations) {
      const std::int64_t vol = g_.tensor(g_.op(agg.op).output).shape.volume();
      const std::string init = agg.combiner == ReduceOpKind::kMax
                                   ? "-std::numeric_limits<float>::infinity()"
                                   : "0.0f";
      std::string z = NewVar("z");
      Line("for (std::int64_t " + z + " = 0; " + z + " < " + I64(vol) + "; ++" + z + ") {");
      ++indent_;
      Line("acc_o" + I64(agg.op) + "[" + z + "] = " + init + ";");
      if (agg.finalize_divide_by_extent) {
        Line("pub_o" + I64(agg.op) + "[" + z + "] = 0.0f;");
      }
      if (factor_sources_.count(agg.op) > 0) {
        Line("old_o" + I64(agg.op) + "[" + z + "] = 0.0f;");
      }
      --indent_;
      Line("}");
    }
    Line("std::int64_t processed = 0;");

    const std::int64_t remainder = extent_ % step_;
    const std::int64_t main_extent = extent_ - remainder;
    if (main_extent > 0) {
      Comment("temporal main loop: " + I64(main_extent / step_) + " full blocks of width " +
              I64(step_));
      Line("for (std::int64_t s0 = 0; s0 < " + I64(main_extent) + "; s0 += " + I64(step_) +
           ") {");
      ++indent_;
      SF_RETURN_IF_ERROR(EmitBlockBody(step_));
      --indent_;
      Line("}");
    }
    if (remainder > 0) {
      Comment("temporal remainder block of width " + I64(remainder));
      Line("{");
      ++indent_;
      Line("const std::int64_t s0 = " + I64(main_extent) + ";");
      SF_RETURN_IF_ERROR(EmitBlockBody(remainder));
      --indent_;
      Line("}");
    }
    Line("(void)processed;");

    // Final publication of non-streamed outputs (streamed ones were copied
    // block by block).
    for (TensorId t : output_ids_) {
      if (IsStreamedOutput(t)) {
        continue;
      }
      Comment("publish t" + I64(t));
      EmitCopy(FullLayout("o_t" + I64(t), g_.tensor(t).shape.dims()),
               ReadLayout(t, step_));
    }
  }
  Line("return 0;");

  // ---- assemble the translation unit ----
  std::string mode = opt_.reference_mode ? "reference (unfused per-op loops)"
                     : temporal_ ? "fused, temporal dim d" + I64(tdim_) + " extent " +
                                       I64(extent_) + " step " + I64(step_)
                                 : "fused, single pass";
  std::string src;
  src += "// Generated by SpaceFusion cpp_codegen (" + std::string(kEmitterVersion) +
         "). Do not edit.\n";
  src += "// kernel: " + g_.name() + "\n";
  src += "// mode: " + mode + "\n";
  src += "#include <algorithm>\n#include <cmath>\n#include <cstdint>\n#include <limits>\n\n";
  src += "extern \"C\" int @SYM@(const float* const* in, float* const* out, float* scratch) {\n";
  src += body_;
  src += "}\n";

  CppKernel kernel;
  kernel.scratch_floats = std::max<std::int64_t>(scratch_floats_, 1);
  kernel.input_ids = input_ids_;
  kernel.output_ids = output_ids_;

  std::string key_blob = std::string(kEmitterVersion) + "|" +
                         I64(static_cast<std::int64_t>(CppCodegenOptionsDigest(opt_))) + "|" +
                         src;
  kernel.key = Fnv1a64(key_blob);
  char sym[32];
  std::snprintf(sym, sizeof(sym), "sf_k_%016llx",
                static_cast<unsigned long long>(kernel.key));
  kernel.symbol = sym;
  size_t pos;
  while ((pos = src.find("@SYM@")) != std::string::npos) {
    src.replace(pos, 5, kernel.symbol);
  }
  kernel.source = std::move(src);
  return kernel;
}

}  // namespace

StatusOr<CppKernel> EmitCppKernel(const SmgSchedule& schedule, const CppCodegenOptions& options) {
  CppEmitter emitter(schedule, options);
  return emitter.Emit();
}

StatusOr<std::string> EmitCppProgram(const ScheduledProgram& program,
                                     const CppCodegenOptions& options) {
  std::string out;
  for (const SmgSchedule& kernel : program.kernels) {
    SF_ASSIGN_OR_RETURN(CppKernel emitted, EmitCppKernel(kernel, options));
    out += emitted.source;
    out += "\n";
  }
  return out;
}

}  // namespace spacefusion
