// sf-compile: the compile driver.
//
// Compiles built-in models by name through the CompilerEngine, prints the
// per-model compile-time breakdown / tuning statistics / cache behavior and
// every verifier or race-analyzer diagnostic, optionally dumps IR after
// selected passes, and exports timings, diagnostics and the full metrics
// snapshot as JSON. `--mode full` runs every checker, the SFV06xx race
// analyzer included. Exit code 0 only when every requested model compiled
// (a checker error fails the compile; warnings do not).
//
// Two environment variables configure a deployment, read here and handed
// to the engine as options: SPACEFUSION_CACHE_DIR names the persistent
// program cache directory (EngineOptions::cache_dir), and
// SPACEFUSION_SHAPE_BUCKETS the seq-axis buckets of --bucketed compiles
// (BucketingPolicy::FromSpec; default powers of two). An invalid bucket
// spec exits 2.
//
//   sf-compile --model all --json COMPILE_times.json
//   sf-compile --model all --mode full --json VERIFY_models.json
//   sf-compile --model bert --arch H100 --dump-after-pass SlicingPipeline
//   sf-compile --model all --shared-cache   # cross-model program-cache reuse
//   sf-compile --model bert --metrics       # final MetricsSnapshot as text
//   sf-compile --model bert --openmetrics   # Prometheus text exposition
//   sf-compile --model all --report-dir reports/   # per-request CompileReports
//   sf-compile --model bert --bucketed --seq 48,96,200,256   # one engine, 4 shapes
//   sf-compile --list
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "src/codegen/cpp_codegen.h"
#include "src/codegen/jit_cache.h"
#include "src/core/engine.h"
#include "src/graph/models.h"
#include "src/obs/metrics.h"
#include "src/support/file_util.h"
#include "src/support/logging.h"
#include "src/support/string_util.h"

namespace spacefusion {
namespace {

int Usage() {
  std::cerr
      << "usage: sf-compile [--model NAME|all] [--batch N] [--seq N[,N...]] [--arch NAME]\n"
         "                  [--mode off|phase|full] [--dump-after-pass PASS[,PASS...]|all]\n"
         "                  [--shared-cache] [--bucketed] [--json PATH] [--report-dir DIR]\n"
         "                  [--emit-kernels DIR] [--metrics] [--metrics-json]\n"
         "                  [--openmetrics] [--list]\n"
         "\n"
         "  --model           built-in model to compile (default: all)\n"
         "  --batch           batch size (default: 1)\n"
         "  --seq             sequence length / image side for ViT (default: 128); a\n"
         "                    comma list compiles each shape in order through the\n"
         "                    model's engine, one JSON entry per shape\n"
         "  --bucketed        compile through the shape-bucketed path: the shape is\n"
         "                    rounded to its bucket (powers of two, or the ascending\n"
         "                    list in SPACEFUSION_SHAPE_BUCKETS) and the JSON gains\n"
         "                    shape/bucket/bucket_hit/transfer_seeded\n"
         "  --arch            target architecture: V100, A100, H100 (default: A100)\n"
         "  --mode            verification level (default: phase); full also checks\n"
         "                    every candidate and runs the race analyzer\n"
         "  --dump-after-pass dump compilation artifacts after these passes (stderr)\n"
         "  --shared-cache    serve all models from one engine (cross-model program cache)\n"
         "  --json            write per-model timing/metrics JSON to PATH\n"
         "  --report-dir      write one CompileReport JSON per engine request to DIR\n"
         "  --emit-kernels    dump every compiled kernel to DIR as <model>-s<I>-k<J>.cc:\n"
         "                    the native C++ the JIT builds, named inside by its\n"
         "                    content-hash symbol; prints the flags it builds them with\n"
         "  --metrics         print the final MetricsSnapshot as text to stdout\n"
         "  --metrics-json    print the final MetricsSnapshot as JSON to stdout\n"
         "  --openmetrics     print the final snapshot as OpenMetrics exposition\n"
         "  --list            print the built-in model and architecture names and exit\n"
         "\n"
         "environment:\n"
         "  SPACEFUSION_CACHE_DIR      persistent program cache directory (default: none)\n"
         "  SPACEFUSION_SHAPE_BUCKETS  --bucketed seq buckets, e.g. 48,96,256\n"
         "                             (default: powers of two)\n";
  return 2;
}

struct ModelResult {
  std::string model;
  Status status;
  double wall_ms = 0.0;
  CompiledModel compiled;
};

std::string ModelJson(const ModelResult& r, const CompilerEngine& engine) {
  if (!r.status.ok()) {
    return StrCat("{\"model\":\"", r.model, "\",\"status\":\"", r.status.ToString(), "\"}");
  }
  const CompiledModel& m = r.compiled;
  long long screened = 0;
  long long tried = 0;
  for (const CompiledSubprogram& sub : m.unique_subprograms) {
    screened += sub.tuning.configs_screened;
    tried += sub.tuning.configs_tried;
  }
  CompilerEngine::CacheStats cache = engine.cache_stats();
  char buf[640];
  std::snprintf(buf, sizeof(buf),
                "{\"model\":\"%s\",\"status\":\"OK\",\"request_id\":\"%s\",\"wall_ms\":%.3f,"
                "\"unique_subprograms\":%d,\"cache_hits\":%d,"
                "\"compile\":{\"slicing_ms\":%.3f,\"enum_cfg_ms\":%.3f,"
                "\"tuning_s\":%.6f,\"total_s\":%.6f},"
                "\"estimate_us\":%.3f,"
                "\"configs_screened\":%lld,\"configs_tried\":%lld,"
                "\"engine_cache\":{\"hits\":%lld,\"misses\":%lld,\"collisions\":%lld}",
                r.model.c_str(), m.report.request_id.c_str(), r.wall_ms,
                static_cast<int>(m.unique_subprograms.size()), m.cache_hits,
                m.compile_time.slicing_ms, m.compile_time.enum_cfg_ms, m.compile_time.tuning_s,
                m.compile_time.total_s(), m.total.time_us, screened, tried,
                static_cast<long long>(cache.hits), static_cast<long long>(cache.misses),
                static_cast<long long>(cache.collisions));
  std::string json = buf;
  // Shape routing (--bucketed; empty shape/bucket on plain compiles).
  json += StrCat(",\"shape\":\"", m.report.shape, "\",\"bucket\":\"", m.report.bucket,
                 "\",\"bucket_hit\":", m.report.bucket_hit ? "true" : "false",
                 ",\"transfer_seeded\":", m.report.transfer_seeded);
  // Per-pass wall breakdown from the merged CompileReport.
  json += ",\"passes\":{";
  for (size_t i = 0; i < m.report.passes.size(); ++i) {
    char pass_buf[128];
    std::snprintf(pass_buf, sizeof(pass_buf), "%s\"%s\":%.3f", i > 0 ? "," : "",
                  m.report.passes[i].pass.c_str(), m.report.passes[i].wall_ms);
    json += pass_buf;
  }
  return StrCat(json, "},\"verifier\":", m.report.VerifierJson(), "}");
}

// --emit-kernels: one .cc per kernel of every unique subprogram, holding
// the exact native C++ source the JIT compiles (named inside by its
// content-hash symbol). Returns files written.
int EmitKernelSources(const std::string& dir, const std::string& model,
                      const CompiledModel& compiled) {
  int written = 0;
  for (size_t s = 0; s < compiled.unique_subprograms.size(); ++s) {
    const ScheduledProgram& program = compiled.unique_subprograms[s].program;
    for (size_t k = 0; k < program.kernels.size(); ++k) {
      const std::string path = StrCat(dir, "/", model, "-s", static_cast<int>(s), "-k",
                                      static_cast<int>(k), ".cc");
      StatusOr<CppKernel> cpp = EmitCppKernel(program.kernels[k]);
      Status cc_written = cpp.ok() ? AtomicWriteFile(path, cpp.value().source) : cpp.status();
      if (cc_written.ok()) {
        ++written;
      } else {
        std::cerr << "sf-compile: --emit-kernels failed for " << path << ": "
                  << cc_written.ToString() << "\n";
      }
    }
  }
  return written;
}

int Run(int argc, char** argv) {
  std::string model_arg = "all";
  std::int64_t batch = 1;
  std::vector<std::int64_t> seqs = {128};
  GpuArch arch = AmpereA100();
  VerifyMode mode = VerifyMode::kPhase;
  std::string json_path;
  std::string report_dir;
  std::string dump_after_pass;
  std::string emit_kernels_dir;
  bool shared_cache = false;
  bool bucketed = false;
  bool print_metrics = false;
  bool print_metrics_json = false;
  bool print_openmetrics = false;

  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--list") {
      for (ModelKind kind : AllModelKinds()) {
        std::cout << ModelKindName(kind) << "\n";
      }
      for (const GpuArch& a : AllArchitectures()) {
        std::cout << a.name << "\n";
      }
      return 0;
    }
    if (flag == "--shared-cache") {
      shared_cache = true;
      continue;
    }
    if (flag == "--bucketed") {
      bucketed = true;
      continue;
    }
    if (flag == "--metrics") {
      print_metrics = true;
      continue;
    }
    if (flag == "--metrics-json") {
      print_metrics_json = true;
      continue;
    }
    if (flag == "--openmetrics") {
      print_openmetrics = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage();
    }
    std::string value = argv[++i];
    if (flag == "--model") {
      model_arg = value;
    } else if (flag == "--batch") {
      const std::optional<std::int64_t> parsed = ParsePositiveInt(value);
      if (!parsed) {
        std::cerr << "sf-compile: --batch takes a positive integer, got \"" << value << "\"\n";
        return 2;
      }
      batch = *parsed;
    } else if (flag == "--seq") {
      seqs.clear();
      for (const std::string& piece : StrSplit(value, ',')) {
        const std::optional<std::int64_t> parsed = ParsePositiveInt(piece);
        if (!parsed) {
          std::cerr << "sf-compile: --seq takes positive integers separated by commas, got \""
                    << value << "\"\n";
          return 2;
        }
        seqs.push_back(*parsed);
      }
    } else if (flag == "--arch") {
      StatusOr<GpuArch> parsed = ArchFromName(value);
      if (!parsed.ok()) {
        std::cerr << "sf-compile: " << parsed.status().message() << "\n";
        return 2;
      }
      arch = parsed.value();
    } else if (flag == "--mode") {
      StatusOr<VerifyMode> parsed = ParseVerifyMode(value);
      if (!parsed.ok()) {
        std::cerr << "sf-compile: " << parsed.status().message() << "\n";
        return 2;
      }
      mode = parsed.value();
    } else if (flag == "--dump-after-pass") {
      dump_after_pass = value;
    } else if (flag == "--json") {
      json_path = value;
    } else if (flag == "--emit-kernels") {
      emit_kernels_dir = value;
    } else if (flag == "--report-dir") {
      report_dir = value;
    } else {
      return Usage();
    }
  }
  if (!emit_kernels_dir.empty() && seqs.size() > 1) {
    // Every shape's dumps would share one set of file names.
    std::cerr << "sf-compile: --emit-kernels takes a single --seq value\n";
    return 2;
  }

  std::vector<ModelKind> kinds;
  if (ToLower(model_arg) == "all") {
    kinds = AllModelKinds();
  } else {
    StatusOr<ModelKind> kind = ModelKindFromName(model_arg);
    if (!kind.ok()) {
      std::cerr << "sf-compile: " << kind.status().message() << "\n";
      return 2;
    }
    kinds.push_back(kind.value());
  }

  BucketingPolicy policy = BucketingPolicy::PowersOfTwo();
  if (const char* spec = std::getenv("SPACEFUSION_SHAPE_BUCKETS"); spec != nullptr && *spec) {
    StatusOr<BucketingPolicy> parsed = BucketingPolicy::FromSpec(spec);
    if (!parsed.ok()) {
      std::cerr << "sf-compile: SPACEFUSION_SHAPE_BUCKETS: " << parsed.status().message() << "\n";
      return 2;
    }
    policy = std::move(parsed).value();
  }

  CompileOptions options(arch);
  options.verify = mode;
  EngineOptions engine_options(options);
  if (const char* dir = std::getenv("SPACEFUSION_CACHE_DIR"); dir != nullptr) {
    engine_options.cache_dir = dir;
  }
  engine_options.dump_after_pass = dump_after_pass;
  std::optional<DirectoryReportSink> report_sink;
  if (!report_dir.empty()) {
    engine_options.report_sink = &report_sink.emplace(report_dir);
  }
  // One engine per model keeps the per-model timings cold; --shared-cache
  // keeps one engine so structurally repeated subprograms across models are
  // served from the program cache (engine.cache.hits).
  CompilerEngine shared_engine{engine_options};

  bool all_ok = true;
  const std::string seq_json =
      seqs.size() == 1 ? StrCat(seqs[0]) : StrCat("[", StrJoin(seqs, ","), "]");
  std::string json = StrCat("{\"arch\":\"", arch.name, "\",\"batch\":", batch,
                            ",\"seq\":", seq_json, ",\"models\":[");
  bool first_entry = true;
  for (ModelKind kind : kinds) {
    CompilerEngine cold_engine{engine_options};
    CompilerEngine& engine = shared_cache ? shared_engine : cold_engine;
    // The shapes compile in order through one engine, so a later bucket
    // can hit an earlier one or be transfer-seeded from it.
    for (std::int64_t seq : seqs) {
      ModelGraph model = BuildModel(GetModelConfig(kind, batch, seq));
      ModelResult r;
      r.model = ModelKindName(kind);
      auto start = std::chrono::steady_clock::now();
      if (bucketed) {
        StatusOr<ShapeCompileResult> compiled =
            engine.CompileModelForShape(kind, ShapeKey{batch, seq}, options, policy);
        if (compiled.ok()) {
          r.compiled = std::move(compiled->compiled);
        } else {
          r.status = compiled.status();
        }
      } else {
        StatusOr<CompiledModel> compiled = engine.CompileModel(model, options);
        if (compiled.ok()) {
          r.compiled = std::move(compiled).value();
        } else {
          r.status = compiled.status();
        }
      }
      r.wall_ms =
          std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
              .count();
      all_ok = all_ok && r.status.ok();

      if (!first_entry) {
        json += ",";
      }
      first_entry = false;
      json += ModelJson(r, engine);

      std::cout << r.model << " (batch=" << batch << ", seq=" << seq << ", " << arch.name
                << "): ";
      if (!r.status.ok()) {
        std::cout << "compile rejected\n" << r.status.ToString() << "\n";
        continue;
      }
      CompilerEngine::CacheStats cache = engine.cache_stats();
      std::printf(
          "%d unique subprogram(s), %d repeat hit(s), est %.1f us\n"
          "  scheduling %.2f ms, enumeration %.2f ms, tuning %.3f s, total %.3f s"
          " (wall %.1f ms)\n"
          "  engine cache: %lld hit(s), %lld miss(es), %lld collision(s)\n",
          static_cast<int>(r.compiled.unique_subprograms.size()), r.compiled.cache_hits,
          r.compiled.total.time_us, r.compiled.compile_time.slicing_ms,
          r.compiled.compile_time.enum_cfg_ms, r.compiled.compile_time.tuning_s,
          r.compiled.compile_time.total_s(), r.wall_ms, static_cast<long long>(cache.hits),
          static_cast<long long>(cache.misses), static_cast<long long>(cache.collisions));
      const CompileReport& report = r.compiled.report;
      if (!report.diagnostics.empty()) {
        std::printf("  verifier: %d error(s), %d warning(s)\n", report.verifier_errors,
                    report.verifier_warnings);
        for (const ReportDiagnostic& d : report.diagnostics) {
          std::printf("    %s\n", d.message.c_str());
        }
      }
      if (!report.bucket.empty()) {
        std::printf("  shape %s -> bucket %s (%s, %lld transfer-seeded config(s))\n",
                    report.shape.c_str(), report.bucket.c_str(),
                    report.bucket_hit ? "bucket hit" : "tuned cold",
                    static_cast<long long>(report.transfer_seeded));
      }
      if (!emit_kernels_dir.empty()) {
        int sources = EmitKernelSources(emit_kernels_dir, r.model, r.compiled);
        std::printf("  emitted %d kernel source(s) to %s (the JIT builds them with: %s)\n",
                    sources, emit_kernels_dir.c_str(), JitCacheOptions().flags.c_str());
      }
    }
  }
  json += StrCat("],\n\"metrics\":", MetricsRegistry::Global().Snapshot().ToJson(), "}\n");

  if (print_metrics || print_metrics_json || print_openmetrics) {
    MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
    if (print_metrics) {
      std::cout << snapshot.ToText();
    }
    if (print_metrics_json) {
      std::cout << snapshot.ToJson() << "\n";
    }
    if (print_openmetrics) {
      std::cout << RenderOpenMetrics(snapshot);
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "sf-compile: cannot write " << json_path << "\n";
      return 2;
    }
    out << json;
  }
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace spacefusion

int main(int argc, char** argv) {
  spacefusion::SetLogThreshold(spacefusion::LogLevel::kWarning);
  return spacefusion::Run(argc, argv);
}
