// Shape buckets: the dynamic-shape axis of the compiler.
//
// Real traffic never has one sequence length, and every (model, shape) pair
// used to be a fresh compile. A ShapeKey names a runtime request shape
// (batch, seq); a BucketingPolicy rounds it up to a bucket shape; the engine
// compiles one schedule per *bucket* and a runtime dispatch table pads
// request tensors to the bucket extent, executes the bucket's program, and
// slices the outputs back. The per-tensor padding rules live here as
// SubprogramLayouts emitted by the bucketed model factory (models.h), so the
// dispatcher never has to guess which dims of a flattened tensor carry batch
// or sequence.
#ifndef SPACEFUSION_SRC_GRAPH_SHAPE_BUCKET_H_
#define SPACEFUSION_SRC_GRAPH_SHAPE_BUCKET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/support/status.h"
#include "src/tensor/tensor.h"

namespace spacefusion {

// A runtime request shape. For ViT `seq` is the image side length in pixels,
// exactly as in GetModelConfig: bucketing happens on the *request* axis, the
// derived patch count follows monotonically.
struct ShapeKey {
  std::int64_t batch = 1;
  std::int64_t seq = 128;

  // Canonical spelling, e.g. "b1s128". Used as the cache bucket tag and in
  // CompileReports.
  std::string Label() const;
  bool operator==(const ShapeKey& other) const {
    return batch == other.batch && seq == other.seq;
  }
  bool operator!=(const ShapeKey& other) const { return !(*this == other); }
};

// Parses a "b<batch>s<seq>" label back into a ShapeKey.
StatusOr<ShapeKey> ParseShapeLabel(const std::string& label);

// Smallest power of two >= v (v >= 1).
std::int64_t RoundUpPow2(std::int64_t v);

// Rounds request shapes up to bucket shapes. The default buckets both axes
// to powers of two; FromSpec overrides the *seq* axis with an explicit
// ascending comma list (e.g. "32,48,128"), falling back to power-of-two
// round-up above the largest listed bucket. The identity
// policy maps every shape to itself — the exact-compile reference the
// differential suite checks dispatch against.
class BucketingPolicy {
 public:
  static BucketingPolicy PowersOfTwo();
  static BucketingPolicy Identity();
  // Parses a seq-axis bucket spec: a strictly ascending comma list of
  // positive integers (sf-compile reads it from SPACEFUSION_SHAPE_BUCKETS).
  static StatusOr<BucketingPolicy> FromSpec(const std::string& spec);

  ShapeKey BucketFor(const ShapeKey& shape) const;
  bool is_identity() const { return identity_; }
  std::string ToString() const;

 private:
  bool identity_ = false;
  std::vector<std::int64_t> seq_buckets_;  // ascending; empty => powers of two
};

// How far apart two buckets are for config-transfer purposes: L1 distance in
// log2 space over both axes. The tuner seeds a new bucket's screen from the
// nearest already-tuned bucket under this metric.
double BucketDistance(const ShapeKey& a, const ShapeKey& b);

// ---- Per-tensor padding layouts -----------------------------------------
//
// Model tensors flatten the (batch, seq) axes into grouped dims — tokens =
// batch*seq, bh = batch*heads — so padding a dim is not a suffix copy: it
// must decompose each dim into sub-dims, embed the exact extents into the
// bucket extents with strided copies, and remember which tensor is the
// additive attention mask (whose padded key/value columns must read -1e30,
// not 0, so the padded softmax region underflows to exactly zero).

enum class DimAxis {
  kFixed,  // a model hyper-parameter (hidden, head_dim, heads): never padded
  kBatch,  // scales with ShapeKey::batch
  kSeq,    // scales with the (derived) sequence length
};

struct SubDim {
  DimAxis axis = DimAxis::kFixed;
  std::int64_t extent = 1;  // used only when axis == kFixed
};

// Extents the kBatch/kSeq axes resolve to. `seq` is the *derived* sequence
// length (ModelConfig::seq — patch count for ViT), not the raw request axis.
struct AxisExtents {
  std::int64_t batch = 1;
  std::int64_t seq = 1;
};

std::int64_t SubDimExtent(const SubDim& sub, const AxisExtents& extents);

struct TensorLayout {
  std::string name;  // debugging only; matching is positional
  // One entry per tensor dim, each a row-major list of sub-dims whose
  // extents multiply to the dim extent (e.g. tokens = [kBatch, kSeq]).
  std::vector<std::vector<SubDim>> dims;
  // Additive attention mask: padded kv columns (last dim) are filled with
  // kMaskPadValue instead of zero.
  bool attn_mask = false;
};

// Additive-mask fill for padded key/value columns: sf_exp clamps its
// argument at -104, so sf_exp(kMaskPadValue - max) is exactly +0.0f for any
// row max (KernelMathTest.MaskPadValueExpIsExactlyZero), and the bucket
// softmax is bit-identical to the exact softmax on the real region (padding
// is a suffix, summation order of real elements is unchanged).
inline constexpr float kMaskPadValue = -1e30f;

// Padding rules for one subprogram: entries parallel to the graph's
// InputIds() / OutputIds() order. Weights are not listed — they are
// shape-invariant and copied through by the dispatcher.
struct SubprogramLayout {
  std::vector<TensorLayout> inputs;
  std::vector<TensorLayout> outputs;
};

// Shape of `layout` at the given axis extents.
Shape LayoutShape(const TensorLayout& layout, const AxisExtents& extents);

// Embeds `exact` (shaped LayoutShape(layout, exact_extents)) into a tensor
// at the bucket extents. Padding is zero-fill, except attention masks where
// padded kv columns read kMaskPadValue (padded query rows keep 0 in real
// columns, so even a fully padded row stays NaN-free through softmax).
StatusOr<Tensor> PadToBucket(const TensorLayout& layout, const Tensor& exact,
                             const AxisExtents& exact_extents,
                             const AxisExtents& bucket_extents);

// Inverse of PadToBucket's embedding: copies the real region of a
// bucket-shaped tensor back out to the exact shape.
StatusOr<Tensor> SliceToExact(const TensorLayout& layout, const Tensor& bucket,
                              const AxisExtents& exact_extents,
                              const AxisExtents& bucket_extents);

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_GRAPH_SHAPE_BUCKET_H_
