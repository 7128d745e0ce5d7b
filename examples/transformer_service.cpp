// Deploying a Transformer inference service with SpaceFusion: compile whole
// models (the paper's end-to-end scenario), inspect the per-subprogram
// schedules, and compare serving latency against library-backed engines.
//
//   $ ./build/examples/transformer_service
#include <cstdio>

#include "src/core/spacefusion.h"
#include "src/support/logging.h"

int main() {
  using namespace spacefusion;
  SetLogThreshold(LogLevel::kWarning);
  GpuArch arch = AmpereA100();

  for (ModelKind kind : {ModelKind::kBert, ModelKind::kLlama2}) {
    ModelConfig config = GetModelConfig(kind, /*batch=*/8, /*seq=*/512);
    ModelGraph model = BuildModel(config);
    std::printf("==== %s (batch %lld, seq %lld, %d layers, hidden %lld) ====\n",
                config.name.c_str(), static_cast<long long>(config.batch),
                static_cast<long long>(config.seq), config.num_layers,
                static_cast<long long>(config.hidden));

    CompilerEngine engine{CompileOptions(arch)};
    StatusOr<CompiledModel> compiled = engine.CompileModel(model);
    if (!compiled.ok()) {
      std::printf("  compile failed: %s\n", compiled.status().ToString().c_str());
      continue;
    }

    std::printf("  unique subprograms compiled: %zu (repetitions served from cache)\n",
                compiled->unique_subprograms.size());
    std::printf("  compile time: %.1f s tuning + %.1f ms scheduling\n",
                compiled->compile_time.tuning_s,
                compiled->compile_time.slicing_ms + compiled->compile_time.enum_cfg_ms);
    for (const CompiledSubprogram& sub : compiled->unique_subprograms) {
      std::printf("    %-28s %3zu kernel(s) %10.1f us/exec\n",
                  sub.program.kernels[0].graph.name().c_str(), sub.kernels.size(),
                  sub.estimate.time_us);
    }
    std::printf("  end-to-end: %.2f ms/inference (%d kernel launches)\n",
                compiled->total.time_us / 1000.0, compiled->total.kernel_count);

    for (auto make : {MakePyTorchBaseline, MakeTensorRtBaseline, MakeKernlBaseline}) {
      auto baseline = make();
      auto report = EstimateModelWithBaseline(model, *baseline, arch);
      if (report) {
        std::printf("  vs %-12s %8.2f ms  -> %.2fx speedup\n", baseline->name().c_str(),
                    report->time_us / 1000.0, report->time_us / compiled->total.time_us);
      }
    }
    std::printf("\n");
  }
  return 0;
}
