// Host tensors. Values are stored as float regardless of declared dtype; the
// dtype only affects how many bytes the simulator charges per element.
// Every factory but ForOverwrite initializes every element.
#ifndef SPACEFUSION_SRC_TENSOR_TENSOR_H_
#define SPACEFUSION_SRC_TENSOR_TENSOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/tensor/dtype.h"
#include "src/tensor/shape.h"

namespace spacefusion {

class Tensor {
 public:
  Tensor() = default;
  // Zero-filled.
  explicit Tensor(Shape shape, DType dtype = DType::kF16);

  static Tensor Zeros(Shape shape, DType dtype = DType::kF16);
  // Uninitialized: for a caller that writes every element before any read
  // (a JIT kernel's outputs, a full-region copy).
  static Tensor ForOverwrite(Shape shape, DType dtype = DType::kF16);
  static Tensor Full(Shape shape, float value, DType dtype = DType::kF16);
  // Deterministic pseudo-random uniform values in [-1, 1).
  static Tensor Random(Shape shape, std::uint64_t seed, DType dtype = DType::kF16);

  const Shape& shape() const { return shape_; }
  DType dtype() const { return dtype_; }
  std::int64_t volume() const { return shape_.volume(); }
  std::int64_t bytes() const { return volume() * DTypeSize(dtype_); }

  float* data() { return data_.get(); }
  const float* data() const { return data_.get(); }

  float at(std::int64_t flat) const { return data_[static_cast<size_t>(flat)]; }
  float& at(std::int64_t flat) { return data_[static_cast<size_t>(flat)]; }

  float at(const std::vector<std::int64_t>& index) const {
    return data_[static_cast<size_t>(shape_.FlatIndex(index))];
  }
  float& at(const std::vector<std::int64_t>& index) {
    return data_[static_cast<size_t>(shape_.FlatIndex(index))];
  }

  bool defined() const { return data_ != nullptr; }

  // Deep copy (buffers are otherwise shared between Tensor copies).
  Tensor Clone() const;

 private:
  Shape shape_;
  DType dtype_ = DType::kF16;
  std::shared_ptr<float[]> data_;
};

// Largest absolute element-wise difference between two same-shaped tensors.
float MaxAbsDiff(const Tensor& a, const Tensor& b);

// max |a-b| / (|b| + eps): scale-aware comparison for fused-vs-reference.
float MaxRelDiff(const Tensor& a, const Tensor& b, float eps = 1e-5f);

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_TENSOR_TENSOR_H_
