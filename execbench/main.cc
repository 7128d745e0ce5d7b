// sf_execbench: the execution benchmark. Per workload and seed it deploys
// cold (set-up repeated, median reported), checks every program against
// RunReference, then serves the workload's seeded request cycle from one
// closed-loop caller thread and checks every response bit for bit against
// the first result for the same inputs.
//
//   sf_execbench --workload bert_layers --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics; the timed window lasts --seconds
// and at least 100 requests, so p90 has ten samples beyond it, and ends on a
// chunk boundary: useful_gflops is the median over chunks of whole request
// cycles, printed next to the whole-window rate. --trace 1 serves half the
// window untraced and half traced, replays every kernel on preallocated
// buffers, and prints the per-layer metrics; spans go to --trace-out.
// The last stdout line is one JSON object; the exit code is non-zero when
// any request or check failed.
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "execbench/bench_stats.h"
#include "execbench/workloads.h"
#include "src/support/logging.h"

extern char** environ;

namespace execbench {
namespace {

using spacefusion::JitExecutor;
using spacefusion::JitExecutorOptions;
using spacefusion::TensorId;

constexpr int kSetups = 3;  // cold deploys per run; setup_s is their median
constexpr double kTailQuantile = 0.9;
constexpr std::size_t kTailSamples = 10;  // samples that must lie beyond p90
constexpr std::size_t kChunkMinRequests = 10;  // per useful_gflops chunk
constexpr std::size_t kReplayCalls = 5;   // timed calls per kernel in the replay
constexpr std::size_t kHalfWindowMinRequests = 20;  // per half of a traced run

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/runs";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

// SPACEFUSION_* variables change caches, buckets, tuning, backend and
// threads; a run under any of them would not measure the defaults.
std::string FirstSpaceFusionVariable() {
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "SPACEFUSION_", 12) == 0) {
      return std::string(*env).substr(0, std::string(*env).find('='));
    }
  }
  return "";
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    if (__get_cpuid(0x80000002 + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                    &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, sizeof(regs));
  std::string model = brand;
  model.erase(0, model.find_first_not_of(' '));
  return model;
#else
  return "unknown";
#endif
}

std::string FirstLineOf(const std::string& command) {
  std::string line;
  if (FILE* pipe = ::popen(command.c_str(), "r"); pipe != nullptr) {
    char buf[256];
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
      line = buf;
    }
    ::pclose(pipe);
  }
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }
  return line;
}

// Numbers from different hosts must never be diffed against each other.
void PrintHost() {
  const spacefusion::JitCacheOptions jit;
  std::printf("host: nproc=%ld cpu=\"%s\" l2_kib=%ld l3_kib=%ld\n", ::sysconf(_SC_NPROCESSORS_ONLN),
              CpuModel().c_str(), ::sysconf(_SC_LEVEL2_CACHE_SIZE) / 1024,
              ::sysconf(_SC_LEVEL3_CACHE_SIZE) / 1024);
  std::printf("kernel compiler: \"%s\" flags=\"%s\"\n", FirstLineOf("c++ --version 2>&1").c_str(),
              jit.flags.c_str());
}

// A fresh directory for this run's program and kernel caches; removed when
// the run ends.
class RunDir {
 public:
  explicit RunDir(const std::string& parent) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    std::string pattern = parent + "/run-XXXXXX";
    if (::mkdtemp(pattern.data()) != nullptr) {
      path_ = pattern;
    }
  }
  ~RunDir() {
    if (!path_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path_, ec);
    }
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

bool SameBits(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i].defined() || !b[i].defined() || a[i].shape() != b[i].shape() ||
        std::memcmp(a[i].data(), b[i].data(), static_cast<size_t>(a[i].volume()) * sizeof(float)) !=
            0) {
      return false;
    }
  }
  return true;
}

struct Window {
  std::vector<double> latency_ms;
  std::vector<double> request_flops;  // useful FLOPs per request, 0 when it failed
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t useful_flops = 0;    // completed requests, exact shapes
  std::int64_t executed_flops = 0;  // completed requests, as executed
  double seconds = 0.0;             // wall time minus the output checks
  std::int64_t first_request = 0;
};

// Serves requests first_request, first_request+1, ... (slot = id % cycle)
// until `seconds` of serving time have passed, at least `min_requests` were
// timed and their number is a multiple of `chunk`. Checking each response
// against `first` is excluded from the window.
Window ServeWindow(const Workload& workload, Runtime rt,
                   const std::vector<std::vector<Tensor>>& first, std::int64_t first_request,
                   double seconds, std::size_t min_requests, std::size_t chunk = 1) {
  Window w;
  w.first_request = first_request;
  const std::int64_t start = NowNs();
  std::int64_t check_ns = 0;
  std::vector<Tensor> outputs;
  for (std::int64_t id = first_request;; ++id) {
    const size_t slot = static_cast<size_t>(id) % workload.cycle();
    rt.request = id;
    const std::int64_t t0 = NowNs();
    Status status;
    {
      ScopedSpan span(rt.trace, "request", id);
      status = workload.Serve(slot, rt, &outputs);
    }
    const std::int64_t t1 = NowNs();
    w.latency_ms.push_back((t1 - t0) / 1e6);
    ++w.attempted;
    if (status.ok() && SameBits(outputs, first[slot])) {
      w.request_flops.push_back(static_cast<double>(workload.UsefulFlops(slot)));
      w.useful_flops += workload.UsefulFlops(slot);
      w.executed_flops += workload.ExecutedFlops(slot);
    } else {
      w.request_flops.push_back(0.0);
      ++w.failed;
      std::fprintf(stderr, "request %lld (slot %zu) failed: %s\n", static_cast<long long>(id),
                   slot,
                   status.ok() ? "output differs from the first result"
                               : status.ToString().c_str());
    }
    outputs.clear();
    const std::int64_t t2 = NowNs();
    check_ns += t2 - t1;
    if ((t2 - start - check_ns) / 1e9 >= seconds && w.latency_ms.size() >= min_requests &&
        w.latency_ms.size() % chunk == 0) {
      w.seconds = (t2 - start - check_ns) / 1e9;
      return w;
    }
  }
}

double PeakRssMib() {
  struct rusage usage = {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
  std::int64_t samples = 1;
};

class Report {
 public:
  void Add(std::string name, double value, const char* unit, std::int64_t samples = 1) {
    metrics_.push_back(Metric{std::move(name), value, unit, samples});
  }

  void Print() const {
    for (const Metric& m : metrics_) {
      std::printf("metric %-40s %16.6f %-8s n=%lld\n", m.name.c_str(), m.value, m.unit,
                  static_cast<long long>(m.samples));
    }
  }

  std::string Json(bool correct, std::int64_t attempted, std::int64_t failed) const {
    std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    char buf[512];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", \"samples\": %lld}",
                    i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit,
                    static_cast<long long>(m.samples));
      out += buf;
    }
    return out + "}}";
  }

 private:
  std::vector<Metric> metrics_;
};

// Raw time of each deployed program's kernels: every kernel's loaded fn is
// called on preallocated buffers laid out by input_ids / output_ids /
// scratch_floats (median of kReplayCalls after one untimed call), summed
// per program. Run time minus this is the marshalling overhead.
std::map<std::string, double> ReplayKernelsMs(const Deployment& d, std::uint64_t seed) {
  std::map<std::string, double> program_ms;
  for (const Program& program : d.programs) {
    double total_ms = 0.0;
    for (size_t k = 0; k < program.kernels.size(); ++k) {
      const CppKernel& kernel = program.kernels[k];
      const Graph& graph = program.compiled->program.kernels[k].graph;
      const TensorEnv env = spacefusion::MakeGraphInputs(graph, seed);
      std::vector<const float*> in;
      for (TensorId id : kernel.input_ids) {
        in.push_back(env[static_cast<size_t>(id)].data());
      }
      std::vector<std::vector<float>> out_buffers;
      std::vector<float*> out;
      for (TensorId id : kernel.output_ids) {
        out_buffers.emplace_back(static_cast<size_t>(graph.tensor(id).shape.volume()));
      }
      for (std::vector<float>& buffer : out_buffers) {
        out.push_back(buffer.data());
      }
      std::vector<float> scratch(static_cast<size_t>(program.loaded[k].scratch_floats));
      const spacefusion::CppKernelFn fn = program.loaded[k].fn;
      fn(in.data(), out.data(), scratch.data());
      std::vector<double> ms;
      for (size_t call = 0; call < kReplayCalls; ++call) {
        const std::int64_t t0 = NowNs();
        fn(in.data(), out.data(), scratch.data());
        ms.push_back((NowNs() - t0) / 1e6);
      }
      total_ms += Quantile(ms, 0.5);
    }
    program_ms[program.name] = total_ms;
  }
  return program_ms;
}

// Bytes a program's kernels read and write at their boundaries (fp32 on
// the host): the numerator of its GB/s.
std::int64_t BoundaryBytes(const Program& program) {
  std::int64_t bytes = 0;
  for (size_t k = 0; k < program.kernels.size(); ++k) {
    const Graph& graph = program.compiled->program.kernels[k].graph;
    for (const auto* ids : {&program.kernels[k].input_ids, &program.kernels[k].output_ids}) {
      for (TensorId id : *ids) {
        bytes += graph.tensor(id).shape.volume() * static_cast<std::int64_t>(sizeof(float));
      }
    }
  }
  return bytes;
}

// Sum of self time per span name over spans matching `keep`, in ms.
std::map<std::string, double> SelfMsByName(const SpanRecorder& recorder,
                                           const std::function<bool(const Span&)>& keep) {
  const std::vector<std::int64_t> self = SelfTimesNs(recorder.spans());
  std::map<std::string, double> by_name;
  for (size_t i = 0; i < recorder.spans().size(); ++i) {
    const Span& span = recorder.spans()[i];
    if (keep(span)) {
      by_name[span.name] += self[i] / 1e6;
    }
  }
  return by_name;
}

// The per-layer metrics of a traced run: set-up layers from the set-up
// spans (mean over the set-ups), execution layers from the spans of the
// traced window's requests, and one row per deployed program.
void AddLayerMetrics(const Workload& workload, const Deployment& deploy,
                     const SpanRecorder& recorder, const Window& traced,
                     const std::map<std::string, double>& kernel_ms, std::int64_t cache_hits,
                     std::int64_t fallbacks, const ReferenceCheck& check, Report* report) {
  const std::int64_t n = traced.attempted;
  const auto setup_ms = SelfMsByName(recorder, [](const Span& s) { return s.request < 0; });
  const auto request_ms = SelfMsByName(
      recorder, [&](const Span& s) { return s.request >= traced.first_request; });
  auto setup_mean = [&](const char* name) {
    return setup_ms.count(name) != 0 ? setup_ms.at(name) / kSetups : 0.0;
  };
  auto per_request = [&](const char* name) {
    return request_ms.count(name) != 0 ? request_ms.at(name) / n : 0.0;
  };
  double raw_kernel_ms = 0.0;
  double kernel_calls = 0.0;
  for (std::int64_t id = traced.first_request; id < traced.first_request + n; ++id) {
    const size_t slot = static_cast<size_t>(id) % workload.cycle();
    for (const std::string& name : workload.ProgramsOf(slot)) {
      raw_kernel_ms += kernel_ms.at(name);
      kernel_calls += static_cast<double>(deploy.FindProgram(name)->kernels.size());
    }
  }
  const double program_ms = per_request("exec.program");
  const double overhead_ms = program_ms - raw_kernel_ms / n;
  const SetupCounts& c = deploy.counts;
  const bool dispatched = deploy.table != nullptr;

  report->Add("graph.build_ms", setup_mean("graph.build"), "ms", kSetups);
  report->Add("engine.compile_ms", setup_mean("engine.compile"), "ms", kSetups);
  report->Add("engine.programs", c.programs, "count");
  report->Add("engine.kernels", c.kernels, "count");
  report->Add("engine.configs_enumerated", c.configs_enumerated, "count");
  report->Add("engine.configs_tried", c.configs_tried, "count");
  report->Add("engine.transfer_seeded", c.transfer_seeded, "count");
  report->Add("engine.bucket_hits", c.bucket_hits, "count");
  report->Add("codegen.emit_ms", setup_mean("codegen.emit"), "ms", kSetups);
  report->Add("codegen.source_bytes", c.source_bytes, "bytes");
  report->Add("jit_cache.build_ms", setup_mean("jit_cache.get_or_build"), "ms", kSetups);
  report->Add("jit_cache.builds", c.builds, "count");
  report->Add("jit_cache.hits", static_cast<double>(cache_hits) / n, "count", n);
  report->Add("jit_cache.failures", c.build_failures, "count");
  report->Add("jit_cache.so_bytes", c.so_bytes, "bytes");
  report->Add("exec.program_ms", program_ms, "ms", n);
  report->Add("exec.kernel_ms", raw_kernel_ms / n, "ms", n);
  report->Add("exec.overhead_ms", overhead_ms, "ms", n);
  report->Add("exec.overhead_share", program_ms > 0.0 ? overhead_ms / program_ms : 0.0, "ratio",
              n);
  report->Add("exec.kernel_calls", kernel_calls / n, "count", n);
  report->Add("exec.fallbacks", fallbacks, "count");
  report->Add("shape_dispatch.pad_ms", per_request("shape_dispatch.pad"), "ms", n);
  report->Add("shape_dispatch.slice_ms", per_request("shape_dispatch.slice"), "ms", n);
  report->Add("shape_dispatch.useful_ratio",
              dispatched ? static_cast<double>(traced.useful_flops) / traced.executed_flops : 0.0,
              "ratio", n);
  report->Add("shape_dispatch.buckets",
              dispatched ? static_cast<double>(deploy.table->Buckets().size()) : 0.0, "count");

  // Modeled next to measured, per program: the calibration signal.
  double measured_ms = 0.0;
  double modeled_us = 0.0;
  std::printf("%-24s %12s %12s %10s %10s %12s\n", "program", "modeled_us", "kernel_ms",
              "GFLOP/s", "GB/s", "max_rel_err");
  for (const Program& p : deploy.programs) {
    const double ms = kernel_ms.at(p.name);
    const double flops = static_cast<double>(p.graph->TotalFlops());
    const double bytes = static_cast<double>(BoundaryBytes(p));
    const double err = check.max_rel_err.count(p.name) != 0 ? check.max_rel_err.at(p.name) : 0.0;
    std::printf("%-24s %12.1f %12.3f %10.2f %10.2f %12.3g\n", p.name.c_str(),
                p.compiled->estimate.time_us, ms, flops / ms / 1e6, bytes / ms / 1e6, err);
    report->Add("sim.modeled_us." + p.name, p.compiled->estimate.time_us, "us");
    report->Add("exec.kernel_ms." + p.name, ms, "ms", kReplayCalls);
    report->Add("exec.kernel_gflops." + p.name, flops / ms / 1e6, "GFLOP/s", kReplayCalls);
    report->Add("exec.kernel_gbps." + p.name, bytes / ms / 1e6, "GB/s", kReplayCalls);
    report->Add("reference.max_rel_err." + p.name, err, "ratio");
    measured_ms += ms;
    modeled_us += p.compiled->estimate.time_us;
  }
  report->Add("sim.measured_over_modeled", measured_ms * 1e3 / modeled_us, "ratio");
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "sf_execbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  PrintHost();
  std::printf("workload: %s seed=%llu seconds=%g trace=%d setups=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0,
              kSetups);
  RunDir run_dir(args.work_dir);
  if (run_dir.path().empty()) {
    std::fprintf(stderr, "sf_execbench: cannot create a run directory under %s\n",
                 args.work_dir.c_str());
    return 2;
  }
  SpanRecorder recorder;
  SpanRecorder* trace = args.trace ? &recorder : nullptr;
  Report report;

  // Cold deploys, each into fresh caches; the last one serves.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> deploy;
  for (int k = 0; k < kSetups; ++k) {
    deploy.reset();
    deploy = std::make_unique<Deployment>();
    deploy->dir = run_dir.path() + "/setup-" + std::to_string(k);
    const std::int64_t t0 = NowNs();
    Status status;
    {
      ScopedSpan span(trace, "setup");
      status = workload->Deploy(deploy.get(), trace);
    }
    setup_s.push_back((NowNs() - t0) / 1e9);
    if (!status.ok()) {
      std::fprintf(stderr, "sf_execbench: set-up failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }

  JitExecutor exec(JitExecutorOptions(), deploy->kernel_cache.get());
  Runtime rt;
  rt.deploy = deploy.get();
  rt.exec = &exec;

  // Untimed: every program against the unfused reference evaluator.
  ReferenceCheck check;
  {
    Runtime checked = rt;
    checked.check = &check;
    std::vector<Tensor> outputs;
    for (size_t slot : workload->CheckSlots()) {
      const Status status = workload->Serve(slot, checked, &outputs);
      if (!status.ok()) {
        std::fprintf(stderr, "sf_execbench: reference check failed: %s\n",
                     status.ToString().c_str());
        ++check.mismatches;
      }
    }
  }
  for (const auto& [program, err] : check.max_rel_err) {
    std::printf("reference: %-24s max_rel_err=%.3g (tolerance %.0e)\n", program.c_str(), err,
                check.tolerance);
  }

  // Untimed warm-up over the whole cycle; its results are what every timed
  // request must reproduce bit for bit.
  std::vector<std::vector<Tensor>> first(workload->cycle());
  std::int64_t warmup_failed = 0;
  const std::int64_t warmup = static_cast<std::int64_t>(std::max<size_t>(workload->cycle(), 2));
  for (std::int64_t id = 0; id < warmup; ++id) {
    const size_t slot = static_cast<size_t>(id) % workload->cycle();
    std::vector<Tensor> outputs;
    const Status status = workload->Serve(slot, rt, &outputs);
    if (!status.ok() || (!first[slot].empty() && !SameBits(outputs, first[slot]))) {
      std::fprintf(stderr, "sf_execbench: warm-up request %lld failed: %s\n",
                   static_cast<long long>(id), status.ToString().c_str());
      ++warmup_failed;
    } else if (first[slot].empty()) {
      first[slot] = std::move(outputs);
    }
  }
  if (warmup_failed > 0) {
    return 1;
  }

  Window timed;
  if (!args.trace) {
    const std::size_t chunk = ChunkRequests(workload->cycle(), kChunkMinRequests);
    timed = ServeWindow(*workload, rt, first, warmup, args.seconds,
                        MinSamplesForTail(kTailQuantile, kTailSamples), chunk);
    const double failed_frac = static_cast<double>(timed.failed) / timed.attempted;
    std::vector<double> request_s;
    for (double ms : timed.latency_ms) {
      request_s.push_back(ms / 1e3);
    }
    report.Add("setup_s", Quantile(setup_s, 0.5), "s", kSetups);
    report.Add("request_ms_p50", Quantile(timed.latency_ms, 0.5), "ms", timed.attempted);
    report.Add("request_ms_p90", Quantile(timed.latency_ms, kTailQuantile), "ms", timed.attempted);
    report.Add("useful_gflops", MedianChunkRate(timed.request_flops, request_s, chunk) / 1e9,
               "GFLOP/s", timed.attempted / static_cast<std::int64_t>(chunk));
    // The whole window: lower than useful_gflops by what stalls cost.
    report.Add("useful_gflops_window", timed.useful_flops / timed.seconds / 1e9, "GFLOP/s",
               timed.attempted);
    report.Add("peak_rss_mb", PeakRssMib(), "MiB");
    report.Add("failed_frac", failed_frac, "ratio", timed.attempted);
  } else {
    const Window plain = ServeWindow(*workload, rt, first, warmup, args.seconds / 2,
                                     kHalfWindowMinRequests);
    const std::map<std::string, double> kernel_ms = ReplayKernelsMs(*deploy, args.seed);
    const std::int64_t hits_before = deploy->kernel_cache->stats().memory_hits;
    rt.trace = &recorder;
    timed = ServeWindow(*workload, rt, first, warmup + plain.attempted, args.seconds / 2,
                        kHalfWindowMinRequests);
    const std::int64_t hits = deploy->kernel_cache->stats().memory_hits - hits_before;
    AddLayerMetrics(*workload, *deploy, recorder, timed, kernel_ms, hits,
                    exec.stats().fallbacks, check, &report);
    report.Add("trace.overhead_ms",
               Quantile(timed.latency_ms, 0.5) - Quantile(plain.latency_ms, 0.5), "ms",
               timed.attempted);
    timed.attempted += plain.attempted;
    timed.failed += plain.failed;
    if (!args.trace_out.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(std::filesystem::path(args.trace_out).parent_path(), ec);
      std::ofstream(args.trace_out) << recorder.ToChromeJson();
    }
  }
  report.Print();

  const std::int64_t fallbacks = exec.stats().fallbacks;
  const bool correct = timed.failed == 0 && check.mismatches == 0 && fallbacks == 0;
  if (check.mismatches > 0) {
    std::fprintf(stderr, "sf_execbench: %d program(s) disagree with RunReference\n",
                 check.mismatches);
  }
  if (fallbacks > 0) {
    std::fprintf(stderr, "sf_execbench: %lld kernel(s) fell back to the interpreter\n",
                 static_cast<long long>(fallbacks));
  }
  std::printf("%s\n", report.Json(correct, timed.attempted, timed.failed).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace execbench

int main(int argc, char** argv) {
  execbench::Args args;
  if (!execbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: sf_execbench --workload {bert_layers|ln_mha|bert_shape_mix} --seed N "
                 "--seconds S --trace {0|1} [--work-dir DIR] [--trace-out FILE]\n");
    return 2;
  }
  if (const std::string var = execbench::FirstSpaceFusionVariable(); !var.empty()) {
    std::fprintf(stderr, "sf_execbench: refusing to run with %s set; unset every SPACEFUSION_* "
                         "variable for a hermetic run\n", var.c_str());
    return 2;
  }
  spacefusion::SetLogThreshold(spacefusion::LogLevel::kWarning);
  return execbench::Run(args);
}
