// Native C++ code generation for fused kernels.
//
// The repository's one kernel backend, standing in for the paper's Triton
// lowering: it emits C++ that actually runs on the host, one translation
// unit per kernel, with every extent, stride, tile width, and
// Update-then-Aggregate multiplier baked in as compile-time constants so
// the host compiler can unroll and vectorize the contiguous inner loops.
// The emitted function mirrors the schedule interpreter
// (src/exec/schedule_executor.cc) operation for operation — same scalar
// formulas, same accumulation order, same temporal intra-block structure —
// so with floating-point contraction disabled the compiled kernel is
// bit-identical to the interpreter on reassociation-free op streams.
//
// Matmuls in both forms run a register-blocked micro-kernel (a 4 x 64
// accumulator tile over k blocks of 256; the dot form first copies a K^T
// panel), and each op's outermost independent loop — batch or heads, rows,
// or an unbatched matmul's column tiles — runs as one parallel region in
// contiguous chunks once the op's work clears a fixed constant. A reduction
// that runs as a region reduces four rows per pass, each with its own
// accumulator. Every output element keeps its own ascending accumulation
// and is written by exactly one chunk, so the result is the same bits at
// any thread count and any chunking. Temporal (Update-then-Aggregate)
// kernels stay serial.
//
// exp and tanh (and so GELU and sigmoid) are kSfMathSource
// (src/tensor/kernel_math.h), the text the interpreter itself evaluates,
// pasted into each kernel that calls them; it is branch-free, so the
// elementwise loops vectorize, and each lane rounds as the scalar code
// does. A kernel calls no library function.
//
// An element-wise intermediate is computed inside its consumers instead of
// stored when every consumer reads each of its elements once: always with
// one consumer, and with several only when it is one flop (add, sub, mul,
// max, neg, relu, square) over boundary or stored operands, so
// recomputation never compounds. Recomputing repeats the same operations on
// the same operands, so no bit changes; LayerNorm's x - mean and
// attention's scaled scores stay out of scratch.
//
// Emitted ABI (see CppKernelFn and CppKernelBindFn):
//   extern "C" int sf_k_<key>(const float* const* in, float* const* out,
//                             float* scratch);
//   extern "C" void sf_k_<key>_bind(CppParallelForFn parallel_for);
// `in` holds one pointer per boundary tensor (kInput/kWeight/kConstant, in
// ascending TensorId order: CppKernel::input_ids), `out` one pointer per
// kOutput tensor (CppKernel::output_ids), and `scratch` is a caller-owned
// block of CppKernel::scratch_floats floats for intermediates and running
// accumulators; the kernel writes every output and scratch element before
// reading it, so neither needs zeroing. The return value is 0 (reserved for
// future error codes). The loader calls the bind entry once, before the
// first call, with the process's kernel pool (KernelParallelFor); a kernel
// that is never bound runs every loop on the calling thread. The
// translation unit includes no headers and links against no library, so it
// builds standalone with the JIT's flags (DefaultJitFlags).
#ifndef SPACEFUSION_SRC_CODEGEN_CPP_CODEGEN_H_
#define SPACEFUSION_SRC_CODEGEN_CPP_CODEGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/schedule/schedule_ir.h"
#include "src/support/status.h"

namespace spacefusion {

struct CppCodegenOptions {
  // Emit the *unfused* baseline instead: one full-extent loop nest per op,
  // every intermediate materialized, no temporal tiling and no inlining of
  // element-wise producers into their consumers. This is RunReference as
  // native code — the fair "unfused" side of the wall-clock comparison.
  bool reference_mode = false;
};

// Digest of every emission-affecting option; part of the kernel cache key.
std::uint64_t CppCodegenOptionsDigest(const CppCodegenOptions& options);

// Signature of a compiled kernel entry point.
using CppKernelFn = int (*)(const float* const* in, float* const* out, float* scratch);

// The parallel-for a kernel is bound to: runs body(ctx, begin, end) over
// contiguous chunks covering [0, n) and returns when every chunk has run.
using CppKernelBodyFn = void (*)(void* ctx, long long begin, long long end);
using CppParallelForFn = void (*)(long long n, CppKernelBodyFn body, void* ctx);
// Signature of a kernel's bind entry point, sf_k_<key>_bind.
using CppKernelBindFn = void (*)(CppParallelForFn parallel_for);

// One emitted kernel: the full translation unit plus the ABI metadata the
// executor needs to marshal tensors.
struct CppKernel {
  std::string symbol;                 // "sf_k_<16 hex digits of key>"
  std::uint64_t key = 0;              // content hash of (source, options)
  std::string source;                 // complete C++ translation unit
  std::int64_t scratch_floats = 0;    // caller-provided scratch, in floats
  std::vector<TensorId> input_ids;    // ABI order of in[]
  std::vector<TensorId> output_ids;   // ABI order of out[]
};

// Emits the specialized C++ for one fused kernel. The schedule must have
// block sizes applied (ApplyConfig); the memory plan is not consulted.
StatusOr<CppKernel> EmitCppKernel(const SmgSchedule& schedule,
                                  const CppCodegenOptions& options = CppCodegenOptions());

// Concatenates the sources of every kernel of a partitioned program, in
// kernel order — for inspection (sf-compile --emit-kernels) and for the
// determinism tests. Byte-identical across repeated compiles of the same
// program with the same options.
StatusOr<std::string> EmitCppProgram(const ScheduledProgram& program,
                                     const CppCodegenOptions& options = CppCodegenOptions());

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_CODEGEN_CPP_CODEGEN_H_
