// The exp and tanh every executor evaluates: the interpreter and
// RunReference call them through EvalUnary and UpdateFactor::Multiplier,
// and cpp_codegen pastes kSfMathSource, the same text, into every kernel
// that calls them. Sharing the text, not matching libm, is what keeps the
// JIT bit-identical to the interpreter: both run the same IEEE adds,
// multiplies, divides and bit operations in the same order, and each
// vector lane rounds as the scalar code does.
//
// The functions are branch-free, call nothing, and convert no float to an
// integer (the exponent comes from the bits of a float), so GCC vectorizes
// loops over them without -ffast-math or -fno-trapping-math. Against glibc
// over every 7th float: sf_exp is within 1 ulp and sf_tanh within 2
// (tests/tensor_test.cc pins both on a sweep and at the edges below).
//
// sf_exp: Cody-Waite reduction x = n ln2 + r with n = round(x log2 e),
// taken from the low bits of x log2 e + 1.5 * 2^23; a degree-6 Cephes
// polynomial for e^r; then two power-of-two scalings, 2^(n/2) and
// 2^(n - n/2), so that results down to the smallest denormal round once.
// x is clamped to [-104, 89] first: below -103.97 the result is +0 (-inf
// included), above 88.73 it overflows to +inf, and NaN passes both clamps
// and stays NaN.
//
// sf_tanh(x) = sign(x) * t(|x|), with t the Cephes odd polynomial below
// |x| = 0.625 and 1 - 2 / (e^2|x| + 1) above it, so tanh(-0) = -0,
// tanh(+-inf) = +-1 and denormals come back unchanged.
//
// SF_KERNEL_MATH holds no comment and no directive: it is stringified
// verbatim into the kernels, one line long.
#ifndef SPACEFUSION_SRC_TENSOR_KERNEL_MATH_H_
#define SPACEFUSION_SRC_TENSOR_KERNEL_MATH_H_

#define SF_KERNEL_MATH                                                                      \
  static inline float sf_exp(float x) {                                                     \
    x = x < -104.0f ? -104.0f : x;                                                          \
    x = x > 89.0f ? 89.0f : x;                                                              \
    const float t = x * 1.44269504088896341f + 12582912.0f;                                 \
    const float n = t - 12582912.0f;                                                        \
    const float r = (x - n * 0.693359375f) - n * -2.12194440e-4f;                           \
    float p = 1.9875691500e-4f;                                                             \
    p = p * r + 1.3981999507e-3f;                                                           \
    p = p * r + 8.3334519073e-3f;                                                           \
    p = p * r + 4.1665795894e-2f;                                                           \
    p = p * r + 1.6666665459e-1f;                                                           \
    p = p * r + 5.0000001201e-1f;                                                           \
    p = p * (r * r) + r + 1.0f;                                                             \
    const int k = __builtin_bit_cast(int, t) - 0x4b400000;                                  \
    const int k1 = k >> 1;                                                                  \
    const float s1 = __builtin_bit_cast(float, static_cast<unsigned>(k1 + 127) << 23);      \
    const float s2 = __builtin_bit_cast(float, static_cast<unsigned>(k - k1 + 127) << 23);  \
    return p * s1 * s2;                                                                     \
  }                                                                                         \
  static inline float sf_tanh(float x) {                                                    \
    const unsigned sign = __builtin_bit_cast(unsigned, x) & 0x80000000u;                    \
    const float a = __builtin_bit_cast(float, __builtin_bit_cast(unsigned, x) ^ sign);      \
    const float z = a * a;                                                                  \
    float q = -5.70498872745e-3f;                                                           \
    q = q * z + 2.06390887954e-2f;                                                          \
    q = q * z - 5.37397155531e-2f;                                                          \
    q = q * z + 1.33314422036e-1f;                                                          \
    q = q * z - 3.33332819422e-1f;                                                          \
    const float small = q * z * a + a;                                                      \
    const float large = 1.0f - 2.0f / (sf_exp(a + a) + 1.0f);                               \
    const float y = a < 0.625f ? small : large;                                             \
    return __builtin_bit_cast(float, __builtin_bit_cast(unsigned, y) | sign);               \
  }

#define SF_KERNEL_MATH_STRING_(...) #__VA_ARGS__
#define SF_KERNEL_MATH_STRING(...) SF_KERNEL_MATH_STRING_(__VA_ARGS__)

namespace spacefusion {

SF_KERNEL_MATH

// SF_KERNEL_MATH as source text, for the emitted kernels.
inline constexpr const char* kSfMathSource = SF_KERNEL_MATH_STRING(SF_KERNEL_MATH);

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_TENSOR_KERNEL_MATH_H_
