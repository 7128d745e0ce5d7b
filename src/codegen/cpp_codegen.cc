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
#include "src/tensor/kernel_math.h"

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
constexpr const char* kEmitterVersion = "sfcpp-v3";

// Matmul register tile: kTileRows x kTileCols accumulators fed kTileDepth
// contraction steps per k block. 4 x 64 floats is 16 AVX-512 registers.
constexpr std::int64_t kTileRows = 4;
constexpr std::int64_t kTileCols = 64;
constexpr std::int64_t kTileDepth = 256;

// An op whose work reaches kParallelWork runs its outermost independent
// loop on the kernel pool; smaller ops stay on the calling thread. Each
// region costs a pool round trip per call (about 8-11 us on a 4-vCPU host)
// and one more lambda for the toolchain to build: making every op a region
// raised execbench setup_s by 4-24% for no latency gain beyond the noise
// (DESIGN.md, "Parallel loops"). Work counts an elementwise op's output elements and a
// reduction's input elements; a matmul multiply-add counts 1/16, about its
// measured cost next to a reduction element under AVX-512. The emitted
// source is the same on every host, so the count cannot follow the lane
// count; with 8- or 4-lane vectors it errs toward serial.
constexpr std::int64_t kParallelWork = std::int64_t{1} << 16;
constexpr std::int64_t kMatMulWorkDivisor = 16;

// A reduction that runs as a parallel region (its work reaches
// kParallelWork, in a non-temporal kernel) reduces kReduceRows rows of its
// innermost row axis at once: each row keeps its own accumulator and
// ascending order, so the sums are the reference's, but the rows' add
// chains overlap instead of waiting on one another. Smaller reductions keep
// one row per loop, which builds faster (DESIGN.md, "Rows reduced in
// groups").
constexpr std::int64_t kReduceRows = 4;

// Everything a kernel needs besides its own function: the widest vector
// type of the ISA it is built for (the matmul tile's registers; each lane
// rounds exactly as the scalar code does), the parallel-for it is bound to
// at load time (CppParallelForFn), and sf_for, which runs a loop's chunks on
// it. No headers: the kernel builds in a fraction of the time. Its exp and
// tanh are kSfMathSource, pasted after the prologue into the kernels that
// call them; its sqrt is __builtin_sqrtf, one instruction under
// -fno-math-errno.
constexpr const char* kPrologue = R"(#if defined(__AVX512F__)
typedef float sf_v __attribute__((vector_size(64)));
#elif defined(__AVX__)
typedef float sf_v __attribute__((vector_size(32)));
#else
typedef float sf_v __attribute__((vector_size(16)));
#endif
// A full 64-column matmul tile row is sf_vpr vectors of sf_lanes floats.
constexpr long long sf_lanes = sizeof(sf_v) / sizeof(float);
constexpr long long sf_vpr = 64 / sf_lanes;
typedef void (*sf_body_fn)(void*, long long, long long);
typedef void (*sf_par_fn)(long long, sf_body_fn, void*);
static sf_par_fn sf_par = 0;
// Marks a reduction's region: its loops add each row in order, which GCC's
// loop vectorizer can only do lane by lane, for no speed and about 30 ms of
// build per LayerNorm or attention kernel.
#if defined(__GNUC__) && !defined(__clang__)
#define SF_IN_ORDER __attribute__((optimize("no-tree-loop-vectorize")))
#else
#define SF_IN_ORDER
#endif
template <class F> static void sf_chunk(void* f, long long lo, long long hi) {
  (*static_cast<F*>(f))(lo, hi);
}
// Runs f(lo, hi) over contiguous chunks covering [0, n): on the bound pool,
// or as one call when the kernel was never bound.
template <class F> static inline void sf_for(long long n, F f) {
  const sf_par_fn par = __atomic_load_n(&sf_par, __ATOMIC_RELAXED);
  if (par != 0) {
    par(n, &sf_chunk<F>, &f);
  } else {
    f(0LL, n);
  }
}
)";

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
  // Loops opened by OpenLoops; `region` when the outermost one is a
  // parallel region.
  struct Loops {
    int opened = 0;
    bool region = false;
  };
  // One loop per dim of extent > 1. When `work` clears kParallelWork in a
  // non-temporal kernel, the outermost loop becomes a parallel region,
  // marked SF_IN_ORDER when `in_order` (its loops are a reduction's).
  Loops OpenLoops(const std::vector<std::int64_t>& dims, std::vector<std::string>* coords,
                  std::int64_t work = 0, bool in_order = false);
  void CloseLoops(const Loops& loops);
  bool Parallel(std::int64_t extent, std::int64_t work) const {
    return !temporal_ && extent > 1 && work >= kParallelWork;
  }
  // Opens `for (v = v_lo; v < v_hi; ++v)` over the chunk of [0, extent)
  // that sf_for hands its callback; CloseRegion ends the callback after the
  // loop's own brace is closed.
  void OpenRegion(std::int64_t extent, const std::string& v, bool in_order = false);
  void CloseRegion();
  // `for (long long v = 0; v < bound; ++v) {`, one level deeper; CloseFor
  // ends it.
  void OpenFor(const std::string& v, const std::string& bound);
  void CloseFor();
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

// True when evaluating `consumer` reads each element of its input `t`
// exactly once: unary and reduce always do; binary does unless broadcasting
// replays the element; matmul never does; and no op that names `t` twice
// does.
bool ReadsEachElementOnce(const Graph& g, const Op& consumer, TensorId t) {
  if (std::count(consumer.inputs.begin(), consumer.inputs.end(), t) != 1) {
    return false;
  }
  switch (consumer.kind) {
    case OpKind::kUnary:
    case OpKind::kReduce:
      return true;
    case OpKind::kBinary:
      return g.tensor(consumer.output).shape == g.tensor(t).shape;
    case OpKind::kMatMul:
      return false;
  }
  return false;
}

// One flop per element, with no division or transcendental: cheap enough to
// recompute in every consumer rather than store.
bool IsOneFlop(const Op& op) {
  const BinaryKind b = op.attrs.binary;
  const UnaryKind u = op.attrs.unary;
  return (op.kind == OpKind::kBinary && (b == BinaryKind::kAdd || b == BinaryKind::kSub ||
                                         b == BinaryKind::kMul || b == BinaryKind::kMax)) ||
         (op.kind == OpKind::kUnary &&
          (u == UnaryKind::kNeg || u == UnaryKind::kRelu || u == UnaryKind::kSquare));
}

void CppEmitter::PlanInline() {
  inlined_.assign(g_.tensors().size(), false);
  if (opt_.reference_mode) {
    return;
  }
  // The rule is stated in cpp_codegen.h. Ops come in topological order, so
  // every operand's decision is made before its consumer's.
  for (const Op& op : g_.ops()) {
    if (op.kind != OpKind::kUnary && op.kind != OpKind::kBinary) {
      continue;
    }
    if (g_.tensor(op.output).kind != TensorKind::kIntermediate) {
      continue;
    }
    const std::vector<OpId>& consumers = g_.consumers(op.output);
    if (consumers.empty()) {
      continue;
    }
    if (consumers.size() > 1 &&
        (!IsOneFlop(op) || std::any_of(op.inputs.begin(), op.inputs.end(), [&](TensorId in) {
          return inlined_[static_cast<size_t>(in)];
        }))) {
      continue;
    }
    inlined_[static_cast<size_t>(op.output)] =
        std::all_of(consumers.begin(), consumers.end(), [&](OpId c) {
          return ReadsEachElementOnce(g_, g_.op(c), op.output);
        });
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

CppEmitter::Loops CppEmitter::OpenLoops(const std::vector<std::int64_t>& dims,
                                        std::vector<std::string>* coords, std::int64_t work,
                                        bool in_order) {
  Loops loops;
  for (std::int64_t d : dims) {
    if (d == 1) {
      coords->push_back("0");
      continue;
    }
    std::string v = NewVar("i");
    if (loops.opened == 0 && Parallel(d, work)) {
      OpenRegion(d, v, in_order);
      loops.region = true;
    } else {
      Line("for (long long " + v + " = 0; " + v + " < " + I64(d) + "; ++" + v + ") {");
    }
    ++indent_;
    ++loops.opened;
    coords->push_back(v);
  }
  return loops;
}

void CppEmitter::CloseLoops(const Loops& loops) {
  for (int i = 0; i < loops.opened; ++i) {
    --indent_;
    Line("}");
  }
  if (loops.region) {
    CloseRegion();
  }
}

void CppEmitter::OpenRegion(std::int64_t extent, const std::string& v, bool in_order) {
  Line("sf_for(" + I64(extent) + ", [&](long long " + v + "_lo, long long " + v + "_hi) " +
       (in_order ? "SF_IN_ORDER {" : "{"));
  ++indent_;
  Line("for (long long " + v + " = " + v + "_lo; " + v + " < " + v + "_hi; ++" + v + ") {");
}

void CppEmitter::CloseRegion() {
  --indent_;
  Line("});");
}

void CppEmitter::OpenFor(const std::string& v, const std::string& bound) {
  Line("for (long long " + v + " = 0; " + v + " < " + bound + "; ++" + v + ") {");
  ++indent_;
}

void CppEmitter::CloseFor() {
  --indent_;
  Line("}");
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
      return "sf_exp(" + x + ")";
    case UnaryKind::kRelu:
      return "(" + x + " > 0.0f ? " + x + " : 0.0f)";
    case UnaryKind::kGelu:
      return "0.5f * " + x + " * (1.0f + sf_tanh(0.7978845608f * (" + x + " + 0.044715f * " + x +
             " * " + x + " * " + x + ")))";
    case UnaryKind::kSigmoid:
      return "1.0f / (1.0f + sf_exp(-" + x + "))";
    case UnaryKind::kTanh:
      return "sf_tanh(" + x + ")";
    case UnaryKind::kSqrt:
      return "__builtin_sqrtf(" + x + ")";
    case UnaryKind::kRsqrt:
      return "1.0f / __builtin_sqrtf(" + x + ")";
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
  const Loops loops = OpenLoops(out.dims, &coords, Volume(out.dims));
  std::string v = EmitScalarOp(op, out.dims, coords, width);
  Line(Idx(out, coords) + " = " + v + ";");
  CloseLoops(loops);
}

void CppEmitter::EmitReduceTo(const Op& op, ReduceKind kind, const Layout& out,
                              std::int64_t width) {
  TensorId in = op.inputs[0];
  const std::vector<std::int64_t> in_dims = SliceDims(in, width);
  SF_CHECK_GE(in_dims.size(), 1u);
  const std::int64_t last = in_dims.back();
  const std::vector<std::int64_t> outer(in_dims.begin(), in_dims.end() - 1);
  const std::int64_t work = Volume(in_dims);

  // Reduces the rows at `rows` (outer coordinates each) in one pass over
  // the reduced axis: one accumulator per row, each starting at the
  // identity and taking its row's elements in ascending order.
  auto reduce_rows = [&](const std::vector<std::vector<std::string>>& rows) {
    std::vector<std::string> accs;
    for (size_t k = 0; k < rows.size(); ++k) {
      accs.push_back(NewVar("acc"));
      Line("float " + accs[k] + " = " +
           (kind == ReduceKind::kMax ? "-__builtin_huge_valf()" : "0.0f") + ";");
    }
    const std::string r = NewVar("r");
    OpenFor(r, I64(last));
    for (size_t k = 0; k < rows.size(); ++k) {
      std::vector<std::string> in_coords = rows[k];
      in_coords.push_back(r);
      const std::string x = EmitLoad(in, in_coords, width);
      const std::string& acc = accs[k];
      Line(kind == ReduceKind::kMax
               ? acc + " = (" + acc + " < " + x + " ? " + x + " : " + acc + ");"
               : acc + " += " + x + ";");
    }
    CloseFor();
    for (size_t k = 0; k < rows.size(); ++k) {
      if (kind == ReduceKind::kMean) {
        Line(accs[k] + " /= static_cast<float>(" + I64(last) + ");");
      }
      std::vector<std::string> out_coords = rows[k];
      out_coords.push_back("0");
      Line(Idx(out, out_coords) + " = " + accs[k] + ";");
    }
  };

  // The innermost outer axis with more than one row; every axis after it
  // has extent 1.
  int axis = -1;
  for (size_t a = 0; a < outer.size(); ++a) {
    axis = outer[a] > 1 ? static_cast<int>(a) : axis;
  }
  const std::int64_t rows = axis < 0 ? 1 : outer[static_cast<size_t>(axis)];
  if (temporal_ || work < kParallelWork || rows < kReduceRows) {
    std::vector<std::string> coords;
    const Loops loops = OpenLoops(outer, &coords, work, /*in_order=*/true);
    reduce_rows({coords});
    CloseLoops(loops);
    return;
  }

  // Loops over the axes before `axis`, then one loop over groups of
  // kReduceRows rows spaced rows / kReduceRows apart, then the rows left
  // over. Spaced rows give the group's results no adjacent stores, the seed
  // GCC's SLP pass would pack the accumulators from, gathering each column
  // of the group into one vector: slower than separate add chains.
  std::vector<std::string> coords;
  const Loops lead = OpenLoops(std::vector<std::int64_t>(outer.begin(), outer.begin() + axis),
                               &coords, work, /*in_order=*/true);
  const std::int64_t spacing = rows / kReduceRows;
  auto row = [&](const std::string& index) {
    std::vector<std::string> c = coords;
    c.push_back(index);
    c.resize(outer.size(), "0");
    return c;
  };
  std::vector<std::string> g;
  const Loops groups =
      OpenLoops({spacing}, &g, lead.opened == 0 ? work : 0, /*in_order=*/true);
  std::vector<std::vector<std::string>> group;
  for (std::int64_t k = 0; k < kReduceRows; ++k) {
    const std::string offset = I64(k * spacing);
    group.push_back(row(k == 0 ? g[0] : g[0] == "0" ? offset : "(" + g[0] + " + " + offset + ")"));
  }
  reduce_rows(group);
  CloseLoops(groups);
  if (rows % kReduceRows != 0) {
    const std::string t = NewVar("i");
    Line("for (long long " + t + " = " + I64(kReduceRows * spacing) + "; " + t + " < " +
         I64(rows) + "; ++" + t + ") {");
    ++indent_;
    reduce_rows({row(t)});
    CloseFor();
  }
  CloseLoops(lead);
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

  // Batch (heads) loops outermost; the first one is the op's parallel
  // region when the batch has more than one matrix.
  std::vector<std::int64_t> batch_dims(out.dims.begin(), out.dims.end() - 2);
  std::vector<std::string> batch;
  const std::int64_t work = Volume(out.dims) * k / kMatMulWorkDivisor;
  const Loops loops = OpenLoops(batch_dims, &batch, work);
  auto paren = [](const std::string& x, const std::string& y) { return "(" + x + " + " + y + ")"; };

  // Column tiles of kTileCols (the last one narrower when kTileCols does
  // not divide N). An unbatched matmul runs its column tiles in parallel.
  const std::int64_t full_tiles = n / kTileCols;
  const std::int64_t rem_cols = n % kTileCols;
  const std::int64_t tiles = full_tiles + (rem_cols > 0 ? 1 : 0);
  const std::int64_t depth = std::min(k, kTileDepth);
  const std::int64_t full_rows = m - m % kTileRows;
  const std::string jt = NewVar("jt");
  const bool region = loops.opened == 0 && Parallel(tiles, work);
  if (region) {
    OpenRegion(tiles, jt);
  } else {
    Line("for (long long " + jt + " = 0; " + jt + " < " + I64(tiles) + "; ++" + jt + ") {");
  }
  ++indent_;

  // One column tile: k blocks of `depth`, each over every row tile. Between
  // k blocks the partial sums park in the output, so each C[i, j] starts at
  // 0.0f and adds a * b in ascending k exactly as the reference MatMul does.
  // A full-width tile keeps its accumulators in sf_v registers (a row is
  // sf_vpr vectors); a narrower remainder tile in plain floats.
  auto column_tile = [&](std::int64_t cols, const std::string& j0_expr) {
    const bool vector = cols == kTileCols;
    const std::string j0 = NewVar("j");
    Line("const long long " + j0 + " = " + j0_expr + ";");
    const std::string k0 = NewVar("k");
    const std::string kn = NewVar("kn");
    const std::string kk = NewVar("kk");
    const std::string c = NewVar("c");
    const std::string pan = NewVar("pan");
    if (trb) {
      Line("float " + pan + "[" + I64(depth * cols) + "];");
    }
    Line("for (long long " + k0 + " = 0; " + k0 + " < " + I64(k) + "; " + k0 + " += " +
         I64(depth) + ") {");
    ++indent_;
    Line("const long long " + kn + " = " + I64(k) + " - " + k0 + " < " + I64(depth) + " ? " +
         I64(k) + " - " + k0 + " : " + I64(depth) + ";");
    // B element (kk, col) of this block, col counted from j0: straight from
    // B in the saxpy form ([.., K, N]); in the dot form ([.., N, K]) from a
    // K^T panel of exact copies, so both forms run the same tile.
    auto b_at = [&](const std::string& col) {
      return trb ? pan + "[" + kk + " * " + I64(cols) + " + " + col + "]"
                 : elem(b, rb, batch, paren(k0, kk), paren(j0, col));
    };
    if (trb) {
      OpenFor(c, I64(cols));
      OpenFor(kk, kn);
      Line(b_at(c) + " = " + elem(b, rb, batch, paren(j0, c), paren(k0, kk)) + ";");
      CloseFor();
      CloseFor();
    }
    // A rows x cols accumulator tile at row i0.
    auto row_tile = [&](std::int64_t rows, const std::string& i0) {
      const std::string acc = NewVar("acc");
      const std::string r = NewVar("r");
      const std::string units = vector ? "sf_vpr" : I64(cols);  // per tile row
      const std::string col = vector ? c + " * sf_lanes" : c;
      const std::string tile = acc + "[" + r + "][" + c + "]";
      std::vector<std::string> out_cs = batch;
      out_cs.push_back(paren(i0, r));
      out_cs.push_back(paren(j0, col));
      const std::string out_rc = Idx(out, out_cs);
      auto each = [&](const std::string& stmt) {
        OpenFor(r, I64(rows));
        OpenFor(c, units);
        Line(stmt);
        CloseFor();
        CloseFor();
      };
      auto copy = [](const std::string& dst, const std::string& src) {
        return "__builtin_memcpy(&" + dst + ", &" + src + ", sizeof(sf_v));";
      };
      Line((vector ? "sf_v " : "float ") + acc + "[" + I64(rows) + "][" + units + "];");
      const std::string zero = tile + (vector ? " = sf_v{};" : " = 0.0f;");
      if (k > depth) {
        Line("if (" + k0 + " == 0) {");
        ++indent_;
        each(zero);
        --indent_;
        Line("} else {");
        ++indent_;
        each(vector ? copy(tile, out_rc) : tile + " = " + out_rc + ";");
        --indent_;
        Line("}");
      } else {
        each(zero);
      }
      OpenFor(kk, kn);
      const std::string bv = NewVar("b");
      if (vector) {
        Line("sf_v " + bv + "[sf_vpr];");
        OpenFor(c, "sf_vpr");
        Line(copy(bv + "[" + c + "]", b_at(col)));
        CloseFor();
      }
      OpenFor(r, I64(rows));
      const std::string av = NewVar("v");
      const std::string a_row = paren(i0, r);
      const std::string a_col = paren(k0, kk);
      Line("const float " + av + " = " +
           elem(a, ra, batch, tra ? a_col : a_row, tra ? a_row : a_col) + ";");
      OpenFor(c, units);
      Line(tile + " += " + (vector ? bv + "[" + c + "] * " + av : av + " * " + b_at(c)) + ";");
      CloseFor();
      CloseFor();
      CloseFor();
      each(vector ? copy(out_rc, tile) : out_rc + " = " + tile + ";");
    };
    if (full_rows > 0) {
      const std::string i0 = NewVar("i");
      Line("for (long long " + i0 + " = 0; " + i0 + " < " + I64(full_rows) + "; " + i0 +
           " += " + I64(kTileRows) + ") {");
      ++indent_;
      row_tile(kTileRows, i0);
      --indent_;
      Line("}");
    }
    if (full_rows < m) {
      Line("{");
      ++indent_;
      row_tile(m - full_rows, I64(full_rows));
      --indent_;
      Line("}");
    }
    --indent_;
    Line("}");
  };

  if (full_tiles > 0 && rem_cols > 0) {
    Line("if (" + jt + " < " + I64(full_tiles) + ") {");
    ++indent_;
    column_tile(kTileCols, jt + " * " + I64(kTileCols));
    --indent_;
    Line("} else {");
    ++indent_;
    column_tile(rem_cols, I64(full_tiles * kTileCols));
    --indent_;
    Line("}");
  } else {
    column_tile(full_tiles > 0 ? kTileCols : rem_cols, jt + " * " + I64(kTileCols));
  }
  --indent_;
  Line("}");
  if (region) {
    CloseRegion();
  }
  CloseLoops(loops);
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
  const Loops loops = OpenLoops(src.dims, &coords);
  Line(Idx(dst, coords) + " = " + Idx(src, coords) + ";");
  CloseLoops(loops);
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
  const Loops loops = OpenLoops(out_dims, &coords);
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
      Line("const float " + mult + " = sf_exp(" + I64(factor.power) + ".0f * (" + ov + " - " +
           nv + "));");
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
  CloseLoops(loops);

  if (agg.finalize_divide_by_extent) {
    Comment("publish the running mean: acc * (1 / processed)");
    std::string inv = NewVar("inv");
    Line("const float " + inv + " = 1.0f / static_cast<float>(processed);");
    Layout pub = FullLayout("pub_o" + I64(op.id), out_dims);
    std::vector<std::string> pc;
    const Loops po = OpenLoops(out_dims, &pc);
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
                                   ? "-__builtin_huge_valf()"
                                   : "0.0f";
      std::string z = NewVar("z");
      Line("for (long long " + z + " = 0; " + z + " < " + I64(vol) + "; ++" + z + ") {");
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
    Line("long long processed = 0;");

    const std::int64_t remainder = extent_ % step_;
    const std::int64_t main_extent = extent_ - remainder;
    if (main_extent > 0) {
      Comment("temporal main loop: " + I64(main_extent / step_) + " full blocks of width " +
              I64(step_));
      Line("for (long long s0 = 0; s0 < " + I64(main_extent) + "; s0 += " + I64(step_) +
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
      Line("const long long s0 = " + I64(main_extent) + ";");
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
  src += kPrologue;
  if (body_.find("sf_exp(") != std::string::npos || body_.find("sf_tanh(") != std::string::npos) {
    src += kSfMathSource;
    src += "\n";
  }
  src += "extern \"C\" void @SYM@_bind(sf_par_fn par) {\n"
         "  __atomic_store_n(&sf_par, par, __ATOMIC_RELAXED);\n}\n\n";
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
