#include "src/graph/shape_bucket.h"

#include <algorithm>
#include <cmath>

#include "src/support/string_util.h"

namespace spacefusion {

std::string ShapeKey::Label() const { return StrCat("b", batch, "s", seq); }

StatusOr<ShapeKey> ParseShapeLabel(const std::string& label) {
  // Format: b<batch>s<seq>, both positive decimal integers.
  size_t s_pos = label.find('s', 1);
  if (label.size() < 4 || label[0] != 'b' || s_pos == std::string::npos) {
    return InvalidArgument("malformed shape label: \"" + label + "\"");
  }
  const std::optional<std::int64_t> batch = ParsePositiveInt(label.substr(1, s_pos - 1));
  const std::optional<std::int64_t> seq = ParsePositiveInt(label.substr(s_pos + 1));
  if (!batch || !seq) {
    return InvalidArgument("malformed shape label: \"" + label + "\"");
  }
  return ShapeKey{*batch, *seq};
}

std::int64_t RoundUpPow2(std::int64_t v) {
  std::int64_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

BucketingPolicy BucketingPolicy::PowersOfTwo() { return BucketingPolicy(); }

BucketingPolicy BucketingPolicy::Identity() {
  BucketingPolicy policy;
  policy.identity_ = true;
  return policy;
}

StatusOr<BucketingPolicy> BucketingPolicy::FromSpec(const std::string& spec) {
  BucketingPolicy policy;
  for (const std::string& piece : StrSplit(spec, ',')) {
    const std::optional<std::int64_t> bucket = ParsePositiveInt(piece);
    if (!bucket) {
      return InvalidArgument("\"" + piece + "\" in bucket list \"" + spec +
                             "\" is not a positive integer");
    }
    if (!policy.seq_buckets_.empty() && *bucket <= policy.seq_buckets_.back()) {
      return InvalidArgument("bucket list \"" + spec + "\" is not strictly ascending");
    }
    policy.seq_buckets_.push_back(*bucket);
  }
  if (policy.seq_buckets_.empty()) {
    return InvalidArgument("empty bucket list");
  }
  return policy;
}

ShapeKey BucketingPolicy::BucketFor(const ShapeKey& shape) const {
  if (identity_) {
    return shape;
  }
  ShapeKey bucket;
  bucket.batch = RoundUpPow2(shape.batch);
  bucket.seq = RoundUpPow2(shape.seq);
  // An explicit seq list wins up to its largest bucket; beyond it the
  // power-of-two fallback keeps every shape routable.
  for (std::int64_t b : seq_buckets_) {
    if (b >= shape.seq) {
      bucket.seq = b;
      break;
    }
  }
  return bucket;
}

std::string BucketingPolicy::ToString() const {
  if (identity_) {
    return "identity";
  }
  if (seq_buckets_.empty()) {
    return "pow2";
  }
  std::string out = "seq{";
  for (size_t i = 0; i < seq_buckets_.size(); ++i) {
    out += (i > 0 ? "," : "") + StrCat(seq_buckets_[i]);
  }
  return out + "}+pow2";
}

double BucketDistance(const ShapeKey& a, const ShapeKey& b) {
  return std::abs(std::log2(static_cast<double>(a.seq)) - std::log2(static_cast<double>(b.seq))) +
         std::abs(std::log2(static_cast<double>(a.batch)) -
                  std::log2(static_cast<double>(b.batch)));
}

std::int64_t SubDimExtent(const SubDim& sub, const AxisExtents& extents) {
  switch (sub.axis) {
    case DimAxis::kFixed:
      return sub.extent;
    case DimAxis::kBatch:
      return extents.batch;
    case DimAxis::kSeq:
      return extents.seq;
  }
  return sub.extent;
}

Shape LayoutShape(const TensorLayout& layout, const AxisExtents& extents) {
  std::vector<std::int64_t> dims;
  dims.reserve(layout.dims.size());
  for (const std::vector<SubDim>& dim : layout.dims) {
    std::int64_t extent = 1;
    for (const SubDim& sub : dim) {
      extent *= SubDimExtent(sub, extents);
    }
    dims.push_back(extent);
  }
  return Shape(dims);
}

namespace {

// The layout flattened into one sub-dim list, row-major over dims and then
// over the sub-dims within a dim: each sub-dim's extent, and its stride in
// the flattened tensor.
std::vector<std::int64_t> SubDimExtents(const TensorLayout& layout, const AxisExtents& extents) {
  std::vector<std::int64_t> out;
  for (const std::vector<SubDim>& dim : layout.dims) {
    for (const SubDim& sub : dim) {
      out.push_back(SubDimExtent(sub, extents));
    }
  }
  return out;
}

std::vector<std::int64_t> SubDimStrides(const TensorLayout& layout, const AxisExtents& extents) {
  const std::vector<std::int64_t> sizes = SubDimExtents(layout, extents);
  std::vector<std::int64_t> strides(sizes.size(), 1);
  for (size_t i = sizes.size(); i-- > 1;) {
    strides[i - 1] = strides[i] * sizes[i];
  }
  return strides;
}

Status CheckShape(const char* what, const TensorLayout& layout, const Tensor& t,
                  const AxisExtents& extents) {
  const Shape want = LayoutShape(layout, extents);
  if (t.shape().dims() != want.dims()) {
    return InvalidArgument(StrCat("shape-bucket ", what, ": tensor \"", layout.name, "\" has shape ",
                                  t.shape().ToString(), ", layout expects ", want.ToString()));
  }
  return Status::Ok();
}

// Copies the exact-extent sub-dim index space from src to dst, where both
// are flattened tensors addressed via the given sub-dim strides. The
// innermost sub-dim has stride 1 on both sides, so each of its runs is one
// copy_n. A layout without sub-dims copies its one element; a zero extent
// copies nothing.
void CopyRegion(const std::vector<std::int64_t>& extents,
                const std::vector<std::int64_t>& src_strides,
                const std::vector<std::int64_t>& dst_strides, const float* src, float* dst) {
  if (std::find(extents.begin(), extents.end(), 0) != extents.end()) {
    return;
  }
  const size_t outer = extents.empty() ? 0 : extents.size() - 1;
  const std::int64_t run = extents.empty() ? 1 : extents.back();
  std::vector<std::int64_t> index(outer, 0);
  std::int64_t src_flat = 0;
  std::int64_t dst_flat = 0;
  while (true) {
    std::copy_n(src + src_flat, run, dst + dst_flat);
    size_t axis = outer;
    while (true) {
      if (axis-- == 0) {
        return;
      }
      src_flat += src_strides[axis];
      dst_flat += dst_strides[axis];
      if (++index[axis] < extents[axis]) {
        break;
      }
      src_flat -= index[axis] * src_strides[axis];
      dst_flat -= index[axis] * dst_strides[axis];
      index[axis] = 0;
    }
  }
}

// The sub-dim extents of the real region: each must lie in [0, its bucket
// extent], or the copies would leave either tensor.
StatusOr<std::vector<std::int64_t>> RegionExtents(const TensorLayout& layout,
                                                  const AxisExtents& exact_extents,
                                                  const AxisExtents& bucket_extents) {
  std::vector<std::int64_t> region = SubDimExtents(layout, exact_extents);
  const std::vector<std::int64_t> bucket = SubDimExtents(layout, bucket_extents);
  for (size_t i = 0; i < region.size(); ++i) {
    if (region[i] < 0 || region[i] > bucket[i]) {
      return InvalidArgument(StrCat("shape-bucket: tensor \"", layout.name, "\" sub-dim ", i,
                                    " has exact extent ", region[i], ", outside the bucket's [0, ",
                                    bucket[i], "]"));
    }
  }
  return region;
}

}  // namespace

StatusOr<Tensor> PadToBucket(const TensorLayout& layout, const Tensor& exact,
                             const AxisExtents& exact_extents, const AxisExtents& bucket_extents) {
  SF_ASSIGN_OR_RETURN(const std::vector<std::int64_t> region,
                      RegionExtents(layout, exact_extents, bucket_extents));
  SF_RETURN_IF_ERROR(CheckShape("pad", layout, exact, exact_extents));
  const Shape bucket_shape = LayoutShape(layout, bucket_extents);
  Tensor bucket = Tensor::Zeros(bucket_shape, exact.dtype());
  if (layout.attn_mask && !bucket_shape.dims().empty() && bucket_shape.volume() > 0) {
    // Padded kv columns read -1e30 in *every* row so their softmax weight
    // underflows to exactly zero; padded query rows keep 0 in real columns
    // (a finite row — softmax of it is well defined and sliced away anyway).
    const std::int64_t cols = bucket_shape.dims().back();
    const std::int64_t exact_cols = LayoutShape(layout, exact_extents).dims().back();
    for (float* row = bucket.data(); row < bucket.data() + bucket.volume(); row += cols) {
      std::fill(row + exact_cols, row + cols, kMaskPadValue);
    }
  }
  CopyRegion(region, SubDimStrides(layout, exact_extents), SubDimStrides(layout, bucket_extents),
             exact.data(), bucket.data());
  return bucket;
}

StatusOr<Tensor> SliceToExact(const TensorLayout& layout, const Tensor& bucket,
                              const AxisExtents& exact_extents, const AxisExtents& bucket_extents) {
  SF_ASSIGN_OR_RETURN(const std::vector<std::int64_t> region,
                      RegionExtents(layout, exact_extents, bucket_extents));
  SF_RETURN_IF_ERROR(CheckShape("slice", layout, bucket, bucket_extents));
  // Uninitialized: the region is the whole exact tensor.
  Tensor exact = Tensor::ForOverwrite(LayoutShape(layout, exact_extents), bucket.dtype());
  CopyRegion(region, SubDimStrides(layout, bucket_extents), SubDimStrides(layout, exact_extents),
             bucket.data(), exact.data());
  return exact;
}

}  // namespace spacefusion
