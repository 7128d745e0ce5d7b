// The execution benchmark's workloads. Each one deploys cold (graphs ->
// compile -> emit -> build + load every kernel) and then serves a fixed,
// seeded cycle of requests. The benchmark reaches every layer only through
// its public functions and times those calls here, in its own code:
//
//   graph           subgraph builders, BuildModel, BuildModelBucketed
//   engine          CompilerEngine::Compile, CompileModelForShape
//   codegen         EmitCppKernel
//   jit_cache       JitKernelCache::GetOrBuild
//   exec            JitExecutor::RunProgram, the loaded Kernel::fn (replay)
//   shape_dispatch  ShapeDispatchTable, RunBucketedSubprogram, PadToBucket,
//                   SliceToExact
//
// Workloads (batch 1, one closed-loop caller thread):
//   ln_mha          LayerNorm 2048x2048 then MHA 12x256x256x64: the paper's
//                   two flagship fused kernels (Figs. 12-13). Few, short
//                   kernels, so per-call marshalling is a large share.
//   bert_layers     one BERT-base encoder layer at seq 64; request i uses
//                   weight set i mod 12 (a 340 MB working set, over L3).
//                   GEMM-bound, so kernel codegen moves it.
//   bert_shape_mix  BERT-base layers at seq drawn log-uniformly from
//                   [9, 64], served from pow2 buckets s16/s32/s64 by
//                   pad -> run -> slice: the only workload that exercises
//                   shape dispatch, padding and a multi-bucket cold fill.
//
// Per-layer metrics (traced run), the end-to-end metric each should move,
// and the workloads with the most / least of that layer's work:
//
//   graph           graph.build_ms                           setup_s      all under 1 ms
//   engine          engine.compile_ms, .programs, .kernels,  setup_s      most bert_shape_mix,
//                   .configs_enumerated, .configs_tried,                  least ln_mha
//                   .transfer_seeded, .bucket_hits,
//                   sim.modeled_us.<program> (changes only with a schedule, then in request_ms)
//   codegen         codegen.emit_ms, .source_bytes           setup_s (and request_ms: RunProgram
//                                                            re-emits every kernel per call)
//   jit_cache       jit_cache.build_ms, .builds, .hits,      setup_s      most bert_shape_mix (30
//                   .failures, .so_bytes                                  builds), least ln_mha (2)
//   exec            exec.program_ms, .kernel_ms,             request_ms_p50/p90, useful_gflops;
//                   .overhead_ms, .overhead_share,           overhead most ln_mha, least
//                   .kernel_calls, .fallbacks,               bert_layers; kernel time most
//                   exec.kernel_{ms,gflops,gbps}.<program>   bert_layers, least the LayerNorm
//   shape_dispatch  shape_dispatch.pad_ms, .slice_ms,        request_ms, useful_gflops; only
//                   .useful_ratio, .buckets                  bert_shape_mix, zero elsewhere
//   reference       reference.max_rel_err.<program>          correctness (untimed checks), all
//
// Not measured: serve (off the execution path), obs (off while timing),
// baselines and the Triton emitter (nothing executes them), and wait time
// (one caller thread: no layer waits on another).
#ifndef SPACEFUSION_EXECBENCH_WORKLOADS_H_
#define SPACEFUSION_EXECBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "execbench/bench_stats.h"
#include "src/codegen/jit_cache.h"
#include "src/core/engine.h"
#include "src/core/shape_dispatch.h"
#include "src/exec/jit_executor.h"

namespace execbench {

using spacefusion::CompiledSubprogram;
using spacefusion::CppKernel;
using spacefusion::Graph;
using spacefusion::JitKernelCache;
using spacefusion::Status;
using spacefusion::Tensor;
using spacefusion::TensorEnv;

// One compiled program as deployed: the graph it was compiled for (the
// bucket graph under shape dispatch) and its emitted + loaded kernels.
struct Program {
  std::string name;  // graph name, e.g. "ffn_64x768x3072"
  const Graph* graph = nullptr;
  const CompiledSubprogram* compiled = nullptr;
  std::vector<CppKernel> kernels;
  std::vector<JitKernelCache::Kernel> loaded;
};

// Work counted during one cold deploy.
struct SetupCounts {
  std::int64_t programs = 0;
  std::int64_t kernels = 0;
  std::int64_t configs_enumerated = 0;
  std::int64_t configs_tried = 0;
  std::int64_t transfer_seeded = 0;
  std::int64_t bucket_hits = 0;
  std::int64_t source_bytes = 0;
  std::int64_t builds = 0;
  std::int64_t build_failures = 0;
  std::int64_t so_bytes = 0;
};

// Everything one cold deploy produces. The program and kernel caches live
// in `dir`, fresh for each deploy.
struct Deployment {
  std::string dir;
  std::unique_ptr<spacefusion::CompilerEngine> engine;
  std::unique_ptr<JitKernelCache> kernel_cache;
  // Direct compiles: one program per graph.
  std::vector<Graph> graphs;
  std::vector<CompiledSubprogram> compiled;
  // Shape dispatch (null / empty otherwise): the bucket table and the
  // exact-shape graphs of every seq the traffic carries.
  std::unique_ptr<spacefusion::ShapeDispatchTable> table;
  std::map<std::int64_t, spacefusion::BucketedModel> exact_models;
  std::vector<Program> programs;
  SetupCounts counts;

  const Program* FindProgram(const std::string& name) const;
};

// Per-program numerical check against RunReference (untimed).
struct ReferenceCheck {
  double tolerance = 5e-3;  // the differential suite's relative tolerance
  std::map<std::string, double> max_rel_err;  // program name -> worst output
  int mismatches = 0;
};

// What serving a request needs besides the workload's own inputs.
struct Runtime {
  Deployment* deploy = nullptr;
  spacefusion::JitExecutor* exec = nullptr;
  SpanRecorder* trace = nullptr;    // null = untraced
  std::int64_t request = -1;        // id stamped on spans
  ReferenceCheck* check = nullptr;  // non-null = also run RunReference
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Cold deploy into `deploy->dir` (which must be empty): build the graphs,
  // compile them, and emit, build and load every kernel. Spans go to
  // `trace` when non-null.
  virtual Status Deploy(Deployment* deploy, SpanRecorder* trace) const = 0;

  // Number of distinct requests; request i serves cycle slot i % cycle().
  virtual std::size_t cycle() const = 0;

  // Serves cycle slot `slot`, returning the request's outputs.
  virtual Status Serve(std::size_t slot, const Runtime& rt, std::vector<Tensor>* outputs) const = 0;

  // Slots that together run every deployed program once (for the
  // reference check: one exact shape per bucket under dispatch).
  virtual std::vector<std::size_t> CheckSlots() const = 0;

  // Exact-shape Graph::TotalFlops of slot's request (padding excluded) and
  // the FLOPs its programs execute (bucket extents under dispatch).
  virtual std::int64_t UsefulFlops(std::size_t slot) const = 0;
  virtual std::int64_t ExecutedFlops(std::size_t slot) const { return UsefulFlops(slot); }

  // Deployed programs slot's request runs, in order.
  virtual std::vector<std::string> ProgramsOf(std::size_t slot) const = 0;
};

// The workload named `name` with inputs made from `seed`, or null.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed);

}  // namespace execbench

#endif  // SPACEFUSION_EXECBENCH_WORKLOADS_H_
