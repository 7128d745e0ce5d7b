// Real fused-vs-unfused wall-clock on the host CPU (BENCH_exec.json).
//
// Unlike the fig11-16 benches, which report *modeled* GPU time, this bench
// executes compiled programs for real through the native JIT path and
// times them: fused JIT (the tuned temporal/spatial schedule with inlined
// elementwise chains) against unfused JIT (reference_mode codegen — one
// loop nest per op, every intermediate materialized) and against the
// schedule interpreter. Both JIT sides run the same emission — register
// tiles and the same parallel loops on the same kernel pool — so a fused
// win still comes from locality and fewer memory passes, not from
// parallelism. Kernels build into a fresh temp directory that is removed
// when the bench exits.
//
//   fig_wallclock --json BENCH_exec.json --repeats 5
//
// Exit code 0 only when fused JIT beats unfused JIT on MHA and LayerNorm
// (the paper's two flagship fusion workloads); sf-stats diffs the JSON
// against bench/BENCH_exec.baseline.json with a generous threshold.
#include <stdlib.h>

#include <chrono>
#include <filesystem>
#include <fstream>

#include "bench/bench_util.h"
#include "src/exec/jit_executor.h"

namespace spacefusion {
namespace {

struct Workload {
  std::string name;
  Graph graph;
};

struct Timing {
  double fused_us = 0.0;
  double unfused_us = 0.0;
  double interpret_us = 0.0;
};

double OneRunUs(const std::function<void()>& run) {
  const auto start = std::chrono::steady_clock::now();
  run();
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - start)
      .count();
}

// Best-of-N after one untimed warm-up (the warm-up pays for kernel
// emission and toolchain builds; the timed runs hit the in-memory cache).
double BestOfUs(int repeats, const std::function<void()>& run) {
  run();
  double best = OneRunUs(run);
  for (int i = 1; i < repeats; ++i) {
    best = std::min(best, OneRunUs(run));
  }
  return best;
}

StatusOr<Timing> TimeGraph(const Graph& g, int repeats, JitExecutor* fused,
                           JitExecutor* unfused) {
  CompilerEngine engine{CompileOptions(AmpereA100())};
  SF_ASSIGN_OR_RETURN(CompiledSubprogram compiled, engine.Compile(g));
  const TensorEnv inputs = MakeGraphInputs(g, /*seed=*/7);

  Timing t;
  TensorEnv out;
  const std::int64_t fallbacks_before = fused->stats().fallbacks;
  t.fused_us = BestOfUs(repeats, [&] {
    SF_CHECK(fused->RunProgram(compiled.program, g, inputs, &out).ok());
  });
  t.unfused_us = BestOfUs(repeats, [&] {
    SF_CHECK(unfused->RunProgram(compiled.program, g, inputs, &out).ok());
  });
  t.interpret_us = BestOfUs(repeats, [&] {
    SF_CHECK(RunScheduledProgram(compiled.program, g, inputs, &out).ok());
  });
  if (fused->stats().fallbacks != fallbacks_before) {
    return Internal("fused jit fell back to the interpreter on " + g.name() +
                    "; the wall-clock would not measure native code");
  }
  return t;
}

// A fresh directory under the system temp dir, removed with everything in
// it when this goes out of scope; path() is "" when it cannot be created.
class TempDir {
 public:
  explicit TempDir(const std::string& stem) {
    std::error_code ec;
    std::string pattern =
        (std::filesystem::temp_directory_path(ec) / (stem + "-XXXXXX")).string();
    if (!ec && ::mkdtemp(pattern.data()) != nullptr) {
      path_ = pattern;
    }
  }
  ~TempDir() {
    if (!path_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path_, ec);
    }
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string Json(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

int Run(int argc, char** argv) {
  std::string json_path;
  int repeats = 5;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if ((flag == "--json" || flag == "--repeats") && i + 1 < argc) {
      const std::string value = argv[++i];
      if (flag == "--json") {
        json_path = value;
      } else {
        repeats = std::atoi(value.c_str());
      }
      continue;
    }
    std::fprintf(stderr, "usage: fig_wallclock [--json PATH] [--repeats N]\n");
    return 2;
  }
  if (repeats < 1) {
    repeats = 1;
  }

  PrintHeader("Wall-clock: fused JIT vs unfused JIT vs interpreter (host CPU)");

  // Both executors share one on-disk cache directory; their kernels cannot
  // alias (the codegen options digest is part of every key). Declared first,
  // so it is removed after both executors have unloaded their kernels.
  const TempDir cache_dir("sf-wallclock");
  if (cache_dir.path().empty()) {
    std::fprintf(stderr, "fig_wallclock: cannot create a kernel cache directory\n");
    return 2;
  }
  JitExecutorOptions fused_options;
  fused_options.cache.dir = cache_dir.path();
  JitExecutor fused(fused_options);

  JitExecutorOptions unfused_options;
  unfused_options.cache.dir = cache_dir.path();
  unfused_options.codegen.reference_mode = true;
  JitExecutor unfused(unfused_options);

  std::vector<Workload> workloads;
  workloads.push_back({"mha", BuildMha(/*batch_heads=*/8, /*seq_q=*/256, /*seq_kv=*/256,
                                       /*head_dim=*/64)});
  workloads.push_back({"layernorm", BuildLayerNormGraph(/*m=*/512, /*n=*/4096)});
  workloads.push_back({"mlp", BuildMlp(/*num_layers=*/2, /*m=*/256, /*n=*/512, /*k=*/512)});
  workloads.push_back({"ffn", BuildFfn(/*tokens=*/256, /*hidden=*/768, /*ffn_dim=*/3072,
                                       UnaryKind::kGelu, NormKind::kLayerNorm)});

  std::printf("%-12s %14s %14s %14s %10s\n", "workload", "fused jit us", "unfused jit us",
              "interpret us", "speedup");
  std::string workloads_json;
  bool mha_wins = false;
  bool layernorm_wins = false;
  for (const Workload& w : workloads) {
    StatusOr<Timing> timed = TimeGraph(w.graph, repeats, &fused, &unfused);
    if (!timed.ok()) {
      std::fprintf(stderr, "fig_wallclock: %s: %s\n", w.name.c_str(),
                   timed.status().ToString().c_str());
      return 1;
    }
    const Timing& t = timed.value();
    const double speedup = t.fused_us > 0.0 ? t.unfused_us / t.fused_us : 0.0;
    std::printf("%-12s %14.1f %14.1f %14.1f %9.2fx\n", w.name.c_str(), t.fused_us, t.unfused_us,
                t.interpret_us, speedup);
    if (!workloads_json.empty()) {
      workloads_json += ",";
    }
    workloads_json += "\"" + w.name + "\":{\"fused_jit_us\":" + Json(t.fused_us) +
                      ",\"unfused_jit_us\":" + Json(t.unfused_us) +
                      ",\"interpret_us\":" + Json(t.interpret_us) +
                      ",\"fused_speedup\":" + Json(speedup) + "}";
    if (w.name == "mha") {
      mha_wins = t.fused_us < t.unfused_us;
    }
    if (w.name == "layernorm") {
      layernorm_wins = t.fused_us < t.unfused_us;
    }
  }

  // Whole-zoo execution: every unique subprogram of each model once,
  // jit vs interpreter (fused schedules both times).
  std::printf("\n%-12s %14s %14s\n", "model", "jit us", "interpret us");
  const int model_repeats = std::min(repeats, 3);
  for (ModelKind kind : AllModelKinds()) {
    ModelGraph model = BuildModel(GetModelConfig(kind, /*batch=*/1, /*seq=*/64));
    CompilerEngine engine{CompileOptions(AmpereA100())};
    StatusOr<CompiledModel> compiled = engine.CompileModel(model);
    if (!compiled.ok()) {
      std::fprintf(stderr, "fig_wallclock: %s: %s\n", ModelKindName(kind),
                   compiled.status().ToString().c_str());
      return 1;
    }
    // Distinct subprograms once each (repeat counts would only scale every
    // column by the same factor), each on the graph of the first model
    // subprogram that maps to it.
    std::vector<const Graph*> graphs(compiled->unique_subprograms.size(), nullptr);
    for (size_t i = 0; i < model.subprograms.size(); ++i) {
      const Graph*& graph = graphs[compiled->sub_to_unique[i]];
      if (graph == nullptr) {
        graph = &model.subprograms[i].graph;
      }
    }
    double jit_us = 0.0;
    double interpret_us = 0.0;
    for (size_t u = 0; u < graphs.size(); ++u) {
      const ScheduledProgram& program = compiled->unique_subprograms[u].program;
      const TensorEnv inputs = MakeGraphInputs(*graphs[u], /*seed=*/u + 1);
      TensorEnv out;
      jit_us += BestOfUs(model_repeats, [&] {
        SF_CHECK(fused.RunProgram(program, *graphs[u], inputs, &out).ok());
      });
      interpret_us += BestOfUs(model_repeats, [&] {
        SF_CHECK(RunScheduledProgram(program, *graphs[u], inputs, &out).ok());
      });
    }
    std::printf("%-12s %14.1f %14.1f\n", ModelKindName(kind), jit_us, interpret_us);
    if (!workloads_json.empty()) {
      workloads_json += ",";
    }
    workloads_json += std::string("\"model_") + ModelKindName(kind) +
                      "\":{\"jit_us\":" + Json(jit_us) +
                      ",\"interpret_us\":" + Json(interpret_us) + "}";
  }

  const JitKernelCache::Stats cache = fused.cache().stats();
  const double lookups = static_cast<double>(cache.memory_hits + cache.disk_hits + cache.builds +
                                             cache.failures);
  const double hit_rate =
      lookups > 0.0 ? static_cast<double>(cache.memory_hits + cache.disk_hits) / lookups : 0.0;
  std::printf("\njit cache: %lld built, %lld memory hit(s), %lld disk hit(s), hit rate %.3f\n",
              static_cast<long long>(cache.builds), static_cast<long long>(cache.memory_hits),
              static_cast<long long>(cache.disk_hits), hit_rate);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "fig_wallclock: cannot write %s\n", json_path.c_str());
      return 2;
    }
    out << "{\"bench\":\"fig_wallclock\",\"repeats\":" << repeats << ",\"workloads\":{"
        << workloads_json << "},\"jit_cache\":{\"kernels_built\":" << cache.builds
        << ",\"hits\":" << (cache.memory_hits + cache.disk_hits)
        << ",\"hit_rate\":" << Json(hit_rate) << ",\"build_time_ms\":" << Json(cache.build_ms)
        << "}}\n";
  }

  if (!mha_wins || !layernorm_wins) {
    std::fprintf(stderr,
                 "fig_wallclock: fused JIT did not beat unfused JIT on %s%s%s — the fusion "
                 "speedup claim does not hold on this host\n",
                 mha_wins ? "" : "mha", !mha_wins && !layernorm_wins ? " and " : "",
                 layernorm_wins ? "" : "layernorm");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace spacefusion

int main(int argc, char** argv) {
  spacefusion::SetLogThreshold(spacefusion::LogLevel::kWarning);
  return spacefusion::Run(argc, argv);
}
