#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "src/graph/shape_bucket.h"
#include "src/tensor/kernel_math.h"
#include "src/tensor/tensor.h"
#include "src/tensor/tensor_ops.h"

namespace spacefusion {
namespace {

TEST(ShapeTest, VolumeAndStrides) {
  Shape s({2, 3, 4});
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.volume(), 24);
  std::vector<std::int64_t> strides = s.strides();
  EXPECT_EQ(strides, (std::vector<std::int64_t>{12, 4, 1}));
  EXPECT_EQ(s.FlatIndex({1, 2, 3}), 23);
  EXPECT_EQ(s.ToString(), "[2, 3, 4]");
}

TEST(ShapeTest, ScalarShape) {
  Shape s;
  EXPECT_EQ(s.rank(), 0);
  EXPECT_EQ(s.volume(), 1);
}

TEST(TensorTest, ZerosAndFull) {
  Tensor z = Tensor::Zeros({2, 2});
  EXPECT_EQ(z.at(3), 0.0f);
  Tensor f = Tensor::Full({2, 2}, 1.5f);
  EXPECT_EQ(f.at(0), 1.5f);
  EXPECT_EQ(f.bytes(), 4 * 2);  // fp16 default
  Tensor f32 = Tensor::Full({2, 2}, 1.0f, DType::kF32);
  EXPECT_EQ(f32.bytes(), 4 * 4);
}

TEST(TensorTest, ForOverwriteKeepsShapeAndDtype) {
  const Tensor t = Tensor::ForOverwrite({3, 5}, DType::kF32);
  EXPECT_TRUE(t.defined());
  EXPECT_EQ(t.shape(), Shape({3, 5}));
  EXPECT_EQ(t.bytes(), 4 * 15);
  const Tensor empty = Tensor::ForOverwrite({0, 4});
  EXPECT_TRUE(empty.defined());
  EXPECT_EQ(empty.volume(), 0);
  // The constructor still zero-fills.
  EXPECT_EQ(Tensor(Shape({4})).at(3), 0.0f);
}

TEST(TensorTest, RandomIsDeterministic) {
  Tensor a = Tensor::Random({16}, 7);
  Tensor b = Tensor::Random({16}, 7);
  Tensor c = Tensor::Random({16}, 8);
  EXPECT_EQ(MaxAbsDiff(a, b), 0.0f);
  EXPECT_GT(MaxAbsDiff(a, c), 0.0f);
  for (std::int64_t i = 0; i < a.volume(); ++i) {
    EXPECT_GE(a.at(i), -1.0f);
    EXPECT_LT(a.at(i), 1.0f);
  }
}

TEST(TensorTest, CopiesShareBuffersCloneDoesNot) {
  Tensor a = Tensor::Zeros({4});
  Tensor shared = a;
  Tensor cloned = a.Clone();
  a.at(0) = 9.0f;
  EXPECT_EQ(shared.at(0), 9.0f);
  EXPECT_EQ(cloned.at(0), 0.0f);
}

TEST(TensorOpsTest, MatMulSmall) {
  Tensor a = Tensor::Zeros({2, 3});
  Tensor b = Tensor::Zeros({3, 2});
  // a = [[1,2,3],[4,5,6]], b = [[7,8],[9,10],[11,12]]
  for (int i = 0; i < 6; ++i) {
    a.at(i) = static_cast<float>(i + 1);
    b.at(i) = static_cast<float>(i + 7);
  }
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), Shape({2, 2}));
  EXPECT_FLOAT_EQ(c.at(0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(2), 139.0f);
  EXPECT_FLOAT_EQ(c.at(3), 154.0f);
}

TEST(TensorOpsTest, MatMulTransposeIdentities) {
  // Row, column and k remainders past the emitted kernels' 4 x 64 tile and
  // 256-deep k block.
  Tensor a = Tensor::Random({6, 259}, 1);
  Tensor b = Tensor::Random({259, 67}, 2);
  Tensor expect = MatMul(a, b);
  // Every form adds the same products in ascending k, so all agree exactly.
  // (A^T)^T B
  Tensor at = Transpose(a);
  EXPECT_EQ(MaxAbsDiff(MatMul(at, b, /*transpose_a=*/true, false), expect), 0.0f);
  // A (B^T)^T
  Tensor bt = Transpose(b);
  EXPECT_EQ(MaxAbsDiff(MatMul(a, bt, false, /*transpose_b=*/true), expect), 0.0f);
  EXPECT_EQ(MaxAbsDiff(MatMul(at, bt, true, true), expect), 0.0f);
}

TEST(TensorOpsTest, BatchedMatMulBroadcastsBatchDims) {
  Tensor a = Tensor::Random({3, 4, 5}, 3);
  Tensor w = Tensor::Random({5, 2}, 4);  // no batch dims: broadcast
  Tensor c = MatMul(a, w);
  EXPECT_EQ(c.shape(), Shape({3, 4, 2}));
  // Each batch must equal its own 2-D matmul.
  for (std::int64_t batch = 0; batch < 3; ++batch) {
    Tensor slice = Tensor::Zeros({4, 5});
    for (std::int64_t i = 0; i < 20; ++i) {
      slice.at(i) = a.at(batch * 20 + i);
    }
    Tensor expect = MatMul(slice, w);
    for (std::int64_t i = 0; i < 8; ++i) {
      EXPECT_NEAR(c.at(batch * 8 + i), expect.at(i), 1e-5f);
    }
  }
}

TEST(TensorOpsTest, BroadcastShapes) {
  EXPECT_EQ(BroadcastShape(Shape({4, 1}), Shape({4, 8})), Shape({4, 8}));
  EXPECT_EQ(BroadcastShape(Shape({8}), Shape({4, 8})), Shape({4, 8}));
  EXPECT_EQ(BroadcastShape(Shape({1}), Shape({2, 3})), Shape({2, 3}));
}

TEST(TensorOpsTest, BinaryBroadcastRowStat) {
  Tensor x = Tensor::Random({3, 4}, 5);
  Tensor stat = Reduce(ReduceKind::kMax, x);
  EXPECT_EQ(stat.shape(), Shape({3, 1}));
  Tensor sub = Binary(BinaryKind::kSub, x, stat);
  Tensor row_max = Reduce(ReduceKind::kMax, sub);
  for (std::int64_t r = 0; r < 3; ++r) {
    EXPECT_NEAR(row_max.at(r), 0.0f, 1e-6f);  // max(x - rowmax) == 0
  }
}

TEST(TensorOpsTest, ReduceKinds) {
  Tensor x = Tensor::Zeros({1, 4});
  for (int i = 0; i < 4; ++i) {
    x.at(i) = static_cast<float>(i + 1);  // 1 2 3 4
  }
  EXPECT_FLOAT_EQ(Reduce(ReduceKind::kMax, x).at(0), 4.0f);
  EXPECT_FLOAT_EQ(Reduce(ReduceKind::kSum, x).at(0), 10.0f);
  EXPECT_FLOAT_EQ(Reduce(ReduceKind::kMean, x).at(0), 2.5f);
}

TEST(TensorOpsTest, UnaryFunctions) {
  EXPECT_FLOAT_EQ(EvalUnary(UnaryKind::kRelu, -2.0f), 0.0f);
  EXPECT_FLOAT_EQ(EvalUnary(UnaryKind::kRelu, 3.0f), 3.0f);
  EXPECT_NEAR(EvalUnary(UnaryKind::kSigmoid, 0.0f), 0.5f, 1e-6f);
  EXPECT_NEAR(EvalUnary(UnaryKind::kExp, 1.0f), std::exp(1.0f), 1e-6f);
  EXPECT_NEAR(EvalUnary(UnaryKind::kRsqrt, 4.0f), 0.5f, 1e-6f);
  EXPECT_NEAR(EvalUnary(UnaryKind::kGelu, 0.0f), 0.0f, 1e-6f);
  // GELU is asymptotically identity for large x.
  EXPECT_NEAR(EvalUnary(UnaryKind::kGelu, 10.0f), 10.0f, 1e-3f);
}

class SoftmaxPropertyTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(SoftmaxPropertyTest, RowsSumToOne) {
  std::int64_t n = GetParam();
  Tensor x = Tensor::Random({7, n}, 11 + static_cast<std::uint64_t>(n));
  Tensor sm = Softmax(x);
  Tensor sums = Reduce(ReduceKind::kSum, sm);
  for (std::int64_t r = 0; r < 7; ++r) {
    EXPECT_NEAR(sums.at(r), 1.0f, 1e-5f);
  }
  for (std::int64_t i = 0; i < sm.volume(); ++i) {
    EXPECT_GE(sm.at(i), 0.0f);
  }
}

TEST_P(SoftmaxPropertyTest, InvariantToRowShift) {
  std::int64_t n = GetParam();
  Tensor x = Tensor::Random({3, n}, 13);
  Tensor shifted = Binary(BinaryKind::kAdd, x, Tensor::Full({1}, 5.0f));
  EXPECT_LT(MaxAbsDiff(Softmax(x), Softmax(shifted)), 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SoftmaxPropertyTest, ::testing::Values(1, 2, 5, 16, 63, 128));

class LayerNormPropertyTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(LayerNormPropertyTest, NormalizesRows) {
  std::int64_t n = GetParam();
  Tensor x = Tensor::Random({5, n}, 17);
  Tensor out = LayerNorm(x, Tensor(), Tensor(), 1e-6f);
  Tensor mean = Reduce(ReduceKind::kMean, out);
  Tensor var = Reduce(ReduceKind::kMean, Unary(UnaryKind::kSquare, out));
  for (std::int64_t r = 0; r < 5; ++r) {
    EXPECT_NEAR(mean.at(r), 0.0f, 1e-4f);
    if (n > 1) {
      EXPECT_NEAR(var.at(r), 1.0f, 2e-2f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LayerNormPropertyTest, ::testing::Values(8, 64, 256, 1000));

TEST(TensorOpsTest, TransposeRoundTrip) {
  Tensor x = Tensor::Random({2, 3, 5}, 19);
  EXPECT_EQ(Transpose(x).shape(), Shape({2, 5, 3}));
  EXPECT_LT(MaxAbsDiff(Transpose(Transpose(x)), x), 1e-7f);
}

TEST(TensorOpsTest, MaxRelDiffScaleAware) {
  Tensor a = Tensor::Full({2}, 1000.0f);
  Tensor b = Tensor::Full({2}, 1001.0f);
  EXPECT_LT(MaxRelDiff(a, b), 2e-3f);
  EXPECT_GT(MaxAbsDiff(a, b), 0.5f);
}

// Units in the last place between two floats: 0 when both are NaN, the
// maximum when only one is, and +0 and -0 count as equal.
std::int64_t UlpDistance(float a, float b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::isnan(a) && std::isnan(b) ? 0 : std::numeric_limits<std::int64_t>::max();
  }
  auto line = [](float f) {
    std::int32_t bits = 0;
    std::memcpy(&bits, &f, sizeof(bits));
    return bits < 0 ? std::int64_t{std::numeric_limits<std::int32_t>::min()} - bits
                    : std::int64_t{bits};
  };
  const std::int64_t d = line(a) - line(b);
  return d < 0 ? -d : d;
}

float FromBits(std::uint32_t bits) {
  float f = 0.0f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

// The shared exp and tanh stay within 1 and 2 ulp of libm over every 997th
// float: every sign, denormals, both clamps, infinities and NaNs.
TEST(KernelMathTest, ExpAndTanhTrackLibmOnAStridedSweep) {
  std::int64_t worst_exp = 0;
  std::int64_t worst_tanh = 0;
  float at_exp = 0.0f;
  float at_tanh = 0.0f;
  for (std::uint64_t bits = 0; bits <= 0xffffffffu; bits += 997) {
    const float x = FromBits(static_cast<std::uint32_t>(bits));
    const std::int64_t e = UlpDistance(sf_exp(x), std::exp(x));
    const std::int64_t t = UlpDistance(sf_tanh(x), std::tanh(x));
    if (e > worst_exp) {
      worst_exp = e;
      at_exp = x;
    }
    if (t > worst_tanh) {
      worst_tanh = t;
      at_tanh = x;
    }
  }
  EXPECT_LE(worst_exp, 1) << "at x = " << at_exp;
  EXPECT_LE(worst_tanh, 2) << "at x = " << at_tanh;
}

TEST(KernelMathTest, EdgeCases) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denormal = std::numeric_limits<float>::denorm_min() * 1000.0f;
  EXPECT_EQ(sf_exp(0.0f), 1.0f);
  EXPECT_EQ(sf_exp(-0.0f), 1.0f);
  EXPECT_EQ(sf_exp(denormal), 1.0f);
  EXPECT_EQ(sf_exp(-denormal), 1.0f);
  EXPECT_EQ(sf_exp(inf), inf);
  EXPECT_TRUE(std::isnan(sf_exp(nan)));
  // Results in the denormal range round once, as libm's do.
  for (float x : {-87.5f, -90.0f, -100.0f, -103.0f, -103.9f}) {
    EXPECT_GT(sf_exp(x), 0.0f) << x;
    EXPECT_LE(UlpDistance(sf_exp(x), std::exp(x)), 1) << x;
  }
  // Below about -103.97 the result is +0; above about 88.72, +inf.
  for (float x : {-103.98f, -104.0f, -104.5f, -200.0f, -1e30f, -inf}) {
    EXPECT_EQ(sf_exp(x), 0.0f) << x;
    EXPECT_FALSE(std::signbit(sf_exp(x))) << x;
  }
  EXPECT_LE(UlpDistance(sf_exp(88.72f), std::exp(88.72f)), 1);
  EXPECT_LT(sf_exp(88.72f), inf);
  for (float x : {88.73f, 89.0f, 89.5f, 1e30f}) {
    EXPECT_EQ(sf_exp(x), inf) << x;
  }

  EXPECT_EQ(sf_tanh(0.0f), 0.0f);
  EXPECT_FALSE(std::signbit(sf_tanh(0.0f)));
  EXPECT_EQ(sf_tanh(-0.0f), 0.0f);
  EXPECT_TRUE(std::signbit(sf_tanh(-0.0f)));
  EXPECT_EQ(sf_tanh(denormal), denormal);
  EXPECT_EQ(sf_tanh(-denormal), -denormal);
  EXPECT_EQ(sf_tanh(inf), 1.0f);
  EXPECT_EQ(sf_tanh(-inf), -1.0f);
  EXPECT_TRUE(std::isnan(sf_tanh(nan)));
  // Both sides of the switch from the polynomial to exp, and saturation.
  for (float x : {std::nextafter(0.625f, 0.0f), 0.625f, std::nextafter(0.625f, 1.0f), 9.0f,
                  20.0f, 89.0f}) {
    EXPECT_LE(UlpDistance(sf_tanh(x), std::tanh(x)), 2) << x;
    EXPECT_EQ(sf_tanh(-x), -sf_tanh(x)) << x;
  }
}

// Padded attention columns hold kMaskPadValue: their exp is exactly +0.0f
// for any row maximum, so the padded softmax sums only the real columns.
TEST(KernelMathTest, MaskPadValueExpIsExactlyZero) {
  for (float row_max : {-1e4f, -3.0f, 0.0f, 3.0f, 1e4f}) {
    const float e = sf_exp(kMaskPadValue - row_max);
    EXPECT_EQ(e, 0.0f) << row_max;
    EXPECT_FALSE(std::signbit(e)) << row_max;
    EXPECT_EQ(EvalUnary(UnaryKind::kExp, kMaskPadValue - row_max), e) << row_max;
  }
}

}  // namespace
}  // namespace spacefusion
