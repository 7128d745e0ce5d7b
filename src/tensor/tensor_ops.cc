#include "src/tensor/tensor_ops.h"

#include <cmath>
#include <limits>

#include "src/support/logging.h"
#include "src/tensor/kernel_math.h"

namespace spacefusion {

const char* UnaryKindName(UnaryKind kind) {
  switch (kind) {
    case UnaryKind::kExp:
      return "exp";
    case UnaryKind::kRelu:
      return "relu";
    case UnaryKind::kGelu:
      return "gelu";
    case UnaryKind::kSigmoid:
      return "sigmoid";
    case UnaryKind::kTanh:
      return "tanh";
    case UnaryKind::kSqrt:
      return "sqrt";
    case UnaryKind::kRsqrt:
      return "rsqrt";
    case UnaryKind::kNeg:
      return "neg";
    case UnaryKind::kSquare:
      return "square";
    case UnaryKind::kRecip:
      return "recip";
  }
  return "?";
}

const char* BinaryKindName(BinaryKind kind) {
  switch (kind) {
    case BinaryKind::kAdd:
      return "add";
    case BinaryKind::kSub:
      return "sub";
    case BinaryKind::kMul:
      return "mul";
    case BinaryKind::kDiv:
      return "div";
    case BinaryKind::kMax:
      return "max";
  }
  return "?";
}

const char* ReduceKindName(ReduceKind kind) {
  switch (kind) {
    case ReduceKind::kMax:
      return "reduce_max";
    case ReduceKind::kSum:
      return "reduce_sum";
    case ReduceKind::kMean:
      return "reduce_mean";
  }
  return "?";
}

float EvalUnary(UnaryKind kind, float x) {
  switch (kind) {
    case UnaryKind::kExp:
      return sf_exp(x);
    case UnaryKind::kRelu:
      return x > 0.0f ? x : 0.0f;
    case UnaryKind::kGelu: {
      // tanh approximation, as used by BERT-family models.
      const float kC = 0.7978845608f;  // sqrt(2/pi)
      return 0.5f * x * (1.0f + sf_tanh(kC * (x + 0.044715f * x * x * x)));
    }
    case UnaryKind::kSigmoid:
      return 1.0f / (1.0f + sf_exp(-x));
    case UnaryKind::kTanh:
      return sf_tanh(x);
    case UnaryKind::kSqrt:
      return std::sqrt(x);
    case UnaryKind::kRsqrt:
      return 1.0f / std::sqrt(x);
    case UnaryKind::kNeg:
      return -x;
    case UnaryKind::kSquare:
      return x * x;
    case UnaryKind::kRecip:
      return 1.0f / x;
  }
  return x;
}

float EvalBinary(BinaryKind kind, float a, float b) {
  switch (kind) {
    case BinaryKind::kAdd:
      return a + b;
    case BinaryKind::kSub:
      return a - b;
    case BinaryKind::kMul:
      return a * b;
    case BinaryKind::kDiv:
      return a / b;
    case BinaryKind::kMax:
      return a > b ? a : b;
  }
  return a;
}

Shape BroadcastShape(const Shape& a, const Shape& b) {
  int rank = std::max(a.rank(), b.rank());
  std::vector<std::int64_t> dims(static_cast<size_t>(rank), 1);
  for (int i = 0; i < rank; ++i) {
    std::int64_t da = i < a.rank() ? a.dim(a.rank() - 1 - i) : 1;
    std::int64_t db = i < b.rank() ? b.dim(b.rank() - 1 - i) : 1;
    SF_CHECK(da == db || da == 1 || db == 1)
        << "incompatible broadcast: " << a.ToString() << " vs " << b.ToString();
    dims[static_cast<size_t>(rank - 1 - i)] = std::max(da, db);
  }
  return Shape(dims);
}

namespace {

// Maps a flat index in `out_shape` to the flat index of the broadcast operand.
std::int64_t BroadcastSourceIndex(const Shape& out_shape, std::int64_t out_flat,
                                  const Shape& src_shape) {
  std::int64_t src_flat = 0;
  std::int64_t src_stride = 1;
  std::int64_t rem = out_flat;
  for (int i = out_shape.rank() - 1; i >= 0; --i) {
    std::int64_t coord = rem % out_shape.dim(i);
    rem /= out_shape.dim(i);
    int src_axis = i - (out_shape.rank() - src_shape.rank());
    if (src_axis >= 0) {
      std::int64_t extent = src_shape.dim(src_axis);
      std::int64_t src_coord = extent == 1 ? 0 : coord;
      src_flat += src_coord * src_stride;
      src_stride *= extent;
    }
  }
  return src_flat;
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b, bool transpose_a, bool transpose_b) {
  SF_CHECK_GE(a.shape().rank(), 2);
  SF_CHECK_GE(b.shape().rank(), 2);
  const Shape& sa = a.shape();
  const Shape& sb = b.shape();
  std::int64_t m = transpose_a ? sa.dim(sa.rank() - 1) : sa.dim(sa.rank() - 2);
  std::int64_t k = transpose_a ? sa.dim(sa.rank() - 2) : sa.dim(sa.rank() - 1);
  std::int64_t kb = transpose_b ? sb.dim(sb.rank() - 1) : sb.dim(sb.rank() - 2);
  std::int64_t n = transpose_b ? sb.dim(sb.rank() - 2) : sb.dim(sb.rank() - 1);
  SF_CHECK_EQ(k, kb) << "matmul contraction mismatch";

  // Broadcast batch dims.
  Shape batch_a(std::vector<std::int64_t>(sa.dims().begin(), sa.dims().end() - 2));
  Shape batch_b(std::vector<std::int64_t>(sb.dims().begin(), sb.dims().end() - 2));
  Shape batch = BroadcastShape(batch_a, batch_b);

  std::vector<std::int64_t> out_dims = batch.dims();
  out_dims.push_back(m);
  out_dims.push_back(n);
  Tensor out(Shape(out_dims), a.dtype());

  // Every C[i, j] starts at 0.0f and adds A[i, k] * B[k, j] in ascending k,
  // the order the JIT kernels replay bit for bit. Untransposed B runs i-k-j
  // (a saxpy over the output row, which Tensor zero-fills); transposed B
  // keeps one accumulator per element over two contiguous rows.
  const std::int64_t batch_count = batch.volume();
  const std::int64_t a_row = transpose_a ? 1 : k;  // stride of A along i
  const std::int64_t a_col = transpose_a ? m : 1;  // stride of A along k
  float* const c = out.data();
  for (std::int64_t batch_i = 0; batch_i < batch_count; ++batch_i) {
    const float* const pa = a.data() + BroadcastSourceIndex(batch, batch_i, batch_a) * m * k;
    const float* const pb = b.data() + BroadcastSourceIndex(batch, batch_i, batch_b) * k * n;
    for (std::int64_t i = 0; i < m; ++i) {
      const float* const a_i = pa + i * a_row;
      float* const c_i = c + (batch_i * m + i) * n;
      if (!transpose_b) {
        for (std::int64_t kk = 0; kk < k; ++kk) {
          const float av = a_i[kk * a_col];
          const float* const b_k = pb + kk * n;
          for (std::int64_t j = 0; j < n; ++j) {
            c_i[j] += av * b_k[j];
          }
        }
      } else {
        for (std::int64_t j = 0; j < n; ++j) {
          const float* const b_j = pb + j * k;
          float acc = 0.0f;
          for (std::int64_t kk = 0; kk < k; ++kk) {
            acc += a_i[kk * a_col] * b_j[kk];
          }
          c_i[j] = acc;
        }
      }
    }
  }
  return out;
}

Tensor Unary(UnaryKind kind, const Tensor& x) {
  Tensor out(x.shape(), x.dtype());
  for (std::int64_t i = 0; i < x.volume(); ++i) {
    out.at(i) = EvalUnary(kind, x.at(i));
  }
  return out;
}

Tensor Binary(BinaryKind kind, const Tensor& a, const Tensor& b) {
  Shape out_shape = BroadcastShape(a.shape(), b.shape());
  Tensor out(out_shape, a.dtype());
  for (std::int64_t i = 0; i < out.volume(); ++i) {
    float av = a.at(BroadcastSourceIndex(out_shape, i, a.shape()));
    float bv = b.at(BroadcastSourceIndex(out_shape, i, b.shape()));
    out.at(i) = EvalBinary(kind, av, bv);
  }
  return out;
}

Tensor Reduce(ReduceKind kind, const Tensor& x) {
  SF_CHECK_GE(x.shape().rank(), 1);
  std::int64_t last = x.shape().dim(x.shape().rank() - 1);
  std::vector<std::int64_t> out_dims = x.shape().dims();
  out_dims.back() = 1;
  Tensor out(Shape(out_dims), x.dtype());
  std::int64_t rows = x.volume() / last;
  for (std::int64_t r = 0; r < rows; ++r) {
    float acc = kind == ReduceKind::kMax ? -std::numeric_limits<float>::infinity() : 0.0f;
    for (std::int64_t c = 0; c < last; ++c) {
      float v = x.at(r * last + c);
      if (kind == ReduceKind::kMax) {
        acc = std::max(acc, v);
      } else {
        acc += v;
      }
    }
    if (kind == ReduceKind::kMean) {
      acc /= static_cast<float>(last);
    }
    out.at(r) = acc;
  }
  return out;
}

Tensor Softmax(const Tensor& x) {
  Tensor row_max = Reduce(ReduceKind::kMax, x);
  Tensor shifted = Binary(BinaryKind::kSub, x, row_max);
  Tensor exps = Unary(UnaryKind::kExp, shifted);
  Tensor row_sum = Reduce(ReduceKind::kSum, exps);
  return Binary(BinaryKind::kDiv, exps, row_sum);
}

Tensor LayerNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta, float eps) {
  Tensor mean = Reduce(ReduceKind::kMean, x);
  Tensor centered = Binary(BinaryKind::kSub, x, mean);
  Tensor var = Reduce(ReduceKind::kMean, Unary(UnaryKind::kSquare, centered));
  Tensor denom = Unary(UnaryKind::kSqrt, Binary(BinaryKind::kAdd, var, Tensor::Full({1}, eps)));
  Tensor normed = Binary(BinaryKind::kDiv, centered, denom);
  if (gamma.defined()) {
    normed = Binary(BinaryKind::kMul, normed, gamma);
  }
  if (beta.defined()) {
    normed = Binary(BinaryKind::kAdd, normed, beta);
  }
  return normed;
}

Tensor Scale(const Tensor& x, float scalar) {
  return Binary(BinaryKind::kMul, x, Tensor::Full({1}, scalar));
}

Tensor Transpose(const Tensor& x) {
  SF_CHECK_GE(x.shape().rank(), 2);
  std::vector<std::int64_t> out_dims = x.shape().dims();
  std::swap(out_dims[out_dims.size() - 1], out_dims[out_dims.size() - 2]);
  Tensor out(Shape(out_dims), x.dtype());
  std::int64_t rows = x.shape().dim(x.shape().rank() - 2);
  std::int64_t cols = x.shape().dim(x.shape().rank() - 1);
  std::int64_t batch = x.volume() / (rows * cols);
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t i = 0; i < rows; ++i) {
      for (std::int64_t j = 0; j < cols; ++j) {
        out.at(b * rows * cols + j * rows + i) = x.at(b * rows * cols + i * cols + j);
      }
    }
  }
  return out;
}

}  // namespace spacefusion
