#include "src/tensor/tensor.h"

#include <algorithm>
#include <cmath>

#include "src/support/logging.h"

namespace spacefusion {

namespace {
// SplitMix64: tiny deterministic generator, independent of libstdc++ version.
std::uint64_t SplitMix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}
}  // namespace

Tensor::Tensor(Shape shape, DType dtype)
    : shape_(std::move(shape)),
      dtype_(dtype),
      data_(std::make_shared<float[]>(static_cast<size_t>(shape_.volume()))) {}

Tensor Tensor::Zeros(Shape shape, DType dtype) { return Tensor(std::move(shape), dtype); }

Tensor Tensor::ForOverwrite(Shape shape, DType dtype) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.dtype_ = dtype;
  t.data_ = std::make_shared_for_overwrite<float[]>(static_cast<size_t>(t.shape_.volume()));
  return t;
}

Tensor Tensor::Full(Shape shape, float value, DType dtype) {
  Tensor t = ForOverwrite(std::move(shape), dtype);
  std::fill_n(t.data(), t.volume(), value);
  return t;
}

Tensor Tensor::Random(Shape shape, std::uint64_t seed, DType dtype) {
  Tensor t = ForOverwrite(std::move(shape), dtype);
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL + 1;
  float* v = t.data();
  for (std::int64_t i = 0; i < t.volume(); ++i) {
    std::uint64_t bits = SplitMix64(state);
    v[i] = static_cast<float>(static_cast<double>(bits >> 11) / static_cast<double>(1ULL << 53)) *
               2.0f -
           1.0f;
  }
  return t;
}

Tensor Tensor::Clone() const {
  Tensor out = ForOverwrite(shape_, dtype_);
  std::copy_n(data(), volume(), out.data());
  return out;
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  SF_CHECK(a.shape() == b.shape()) << a.shape().ToString() << " vs " << b.shape().ToString();
  float max_diff = 0.0f;
  for (std::int64_t i = 0; i < a.volume(); ++i) {
    max_diff = std::max(max_diff, std::fabs(a.at(i) - b.at(i)));
  }
  return max_diff;
}

float MaxRelDiff(const Tensor& a, const Tensor& b, float eps) {
  SF_CHECK(a.shape() == b.shape()) << a.shape().ToString() << " vs " << b.shape().ToString();
  float max_diff = 0.0f;
  for (std::int64_t i = 0; i < a.volume(); ++i) {
    float diff = std::fabs(a.at(i) - b.at(i)) / (std::fabs(b.at(i)) + eps);
    max_diff = std::max(max_diff, diff);
  }
  return max_diff;
}

}  // namespace spacefusion
