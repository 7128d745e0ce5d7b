// Reproduces paper Fig. 16: (a) ablation study over the slicing and
// auto-scheduling components, (b) sensitivity to input sizes, (c)
// sensitivity to architectures.
//
// Paper reference: Base(SS) >= 51% of full SpaceFusion, Base+AS up to 79%,
// Base+TS 72-89%; Volta:Ampere:Hopper perf ratio ~1:2.26:4.34 at batch 32
// (peak-ratio 1:2.79:6.75, diluted by CPU-side overhead).
#include <algorithm>

#include "bench/bench_util.h"

namespace spacefusion {
namespace {

double ModelTimeUs(const ModelGraph& model, const CompileOptions& options) {
  CompilerEngine engine{options};
  StatusOr<CompiledModel> compiled = engine.CompileModel(model);
  return compiled.ok() ? compiled->total.time_us : -1.0;
}

CompileOptions Variant(const GpuArch& arch, bool temporal, bool autosched) {
  CompileOptions options{arch};
  options.enable_temporal_slicing = temporal;
  options.enable_auto_scheduling = autosched;
  return options;
}

void RunAblation() {
  PrintHeader("Figure 16(a): Ablation — performance normalized to full SpaceFusion");
  GpuArch arch = AmpereA100();
  for (std::int64_t batch : {1, 32}) {
    std::printf("\n[batch=%lld, %s]\n", static_cast<long long>(batch), arch.name.c_str());
    PrintSeriesHeader("model", {"Base(SS)", "Base+AS", "Base+TS", "SpaceFusion"});
    for (ModelKind kind : AllModelKinds()) {
      std::int64_t seq = kind == ModelKind::kViT ? 224 : 512;
      ModelGraph model = BuildModel(GetModelConfig(kind, batch, seq));
      double base_ss = ModelTimeUs(model, Variant(arch, false, false));
      double base_as = ModelTimeUs(model, Variant(arch, false, true));
      double base_ts = ModelTimeUs(model, Variant(arch, true, false));
      double full = ModelTimeUs(model, Variant(arch, true, true));
      PrintRow(ModelKindName(kind),
               {full / base_ss, full / base_as, full / base_ts, 1.0});
    }
  }
}

void RunInputSensitivity() {
  PrintHeader(
      "Figure 16(b): Sensitivity to input sizes — normalized to each model's best\n"
      "(small/medium/large = prompt 128/512/1024; ViT 224/448/768 px)");
  GpuArch arch = AmpereA100();
  for (std::int64_t batch : {1, 32}) {
    std::printf("\n[batch=%lld]\n", static_cast<long long>(batch));
    PrintSeriesHeader("model", {"Small", "Medium", "Large"});
    auto pytorch = MakePyTorchBaseline();
    for (ModelKind kind : AllModelKinds()) {
      std::vector<std::int64_t> seqs = kind == ModelKind::kViT
                                           ? std::vector<std::int64_t>{224, 448, 768}
                                           : std::vector<std::int64_t>{128, 512, 1024};
      std::vector<double> gains;
      for (std::int64_t seq : seqs) {
        ModelGraph model = BuildModel(GetModelConfig(kind, batch, seq));
        double sf = ModelTimeUs(model, CompileOptions(arch));
        auto base = EstimateModelWithBaseline(model, *pytorch, arch);
        gains.push_back(base && sf > 0 ? base->time_us / sf : -1.0);
      }
      double best = *std::max_element(gains.begin(), gains.end());
      std::vector<double> normalized;
      for (double gain : gains) {
        normalized.push_back(gain > 0 && best > 0 ? gain / best : -1.0);
      }
      PrintRow(ModelKindName(kind), normalized);
    }
  }
}

void RunArchSensitivity() {
  PrintHeader(
      "Figure 16(c): Sensitivity to architectures — SpaceFusion performance (1/time)\n"
      "and speedup over PyTorch, normalized to Volta");
  auto pytorch = MakePyTorchBaseline();
  for (std::int64_t batch : {1, 32}) {
    std::printf("\n[batch=%lld]\n", static_cast<long long>(batch));
    PrintSeriesHeader("model", {"PerfV", "PerfA", "PerfH", "SuV", "SuA", "SuH"});
    double perf_sum[3] = {0, 0, 0};
    int n = 0;
    for (ModelKind kind : AllModelKinds()) {
      std::int64_t seq = kind == ModelKind::kViT ? 224 : 512;
      ModelGraph model = BuildModel(GetModelConfig(kind, batch, seq));
      std::vector<double> perf, speedup;
      for (const GpuArch& arch : AllArchitectures()) {
        double sf = ModelTimeUs(model, CompileOptions(arch));
        perf.push_back(sf > 0 ? 1.0 / sf : -1.0);
        auto base = EstimateModelWithBaseline(model, *pytorch, arch);
        speedup.push_back(base && sf > 0 ? base->time_us / sf : -1.0);
      }
      std::vector<double> row;
      for (double p : perf) {
        row.push_back(p / perf[0]);
      }
      for (double s : speedup) {
        row.push_back(s / speedup[0]);
      }
      for (int i = 0; i < 3; ++i) {
        perf_sum[i] += perf[i] / perf[0];
      }
      ++n;
      PrintRow(ModelKindName(kind), row);
    }
    std::printf("  avg perf ratio Volta:Ampere:Hopper = 1 : %.2f : %.2f"
                " (paper batch-32: 1 : 2.26 : 4.34; FP16 peak ratio 1 : 2.79 : 6.75)\n",
                perf_sum[1] / n, perf_sum[2] / n);
  }
}

}  // namespace
}  // namespace spacefusion

int main() {
  spacefusion::SetLogThreshold(spacefusion::LogLevel::kWarning);
  spacefusion::RunAblation();
  spacefusion::RunInputSensitivity();
  spacefusion::RunArchSensitivity();
  return 0;
}
