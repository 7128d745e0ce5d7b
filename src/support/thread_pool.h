// The kernel pool: the process-wide worker threads JIT kernels run their
// parallel loops on (CppParallelForFn). Compilation runs on its caller's
// thread: a compile takes milliseconds of host work, and fanning it out over
// a pool made it slower (DESIGN.md "Single-threaded compilation").
#ifndef SPACEFUSION_SRC_SUPPORT_THREAD_POOL_H_
#define SPACEFUSION_SRC_SUPPORT_THREAD_POOL_H_

namespace spacefusion {

// Runs body(ctx, begin, end) over [0, n) in contiguous static chunks and
// returns when every chunk has run: the parallel-for JIT kernels are bound
// to (CppParallelForFn). With chunks = min(n, workers + 1), chunk c covers
// [n*c/chunks, n*(c+1)/chunks). The workers are created on first use, one
// per CPU in the process's affinity mask minus one, and never destroyed, so
// unloading kernels never strands them. The caller runs chunk 0 and any
// chunk no worker has claimed yet. The range runs inline, as one call, with
// one CPU, from a pool worker, or while the pool runs another loop (a
// second caller's, or the loop this call is nested in). Safe to call from
// several threads at once; allocates nothing per call. An exception a chunk
// throws is rethrown to the caller once every chunk has finished.
void KernelParallelFor(long long n, void (*body)(void* ctx, long long begin, long long end),
                       void* ctx);

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_SUPPORT_THREAD_POOL_H_
