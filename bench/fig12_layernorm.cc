// Reproduces paper Fig. 12: fused LayerNorm performance. Speedups over the
// unfused PyTorch baseline for PyTorch Op, NVIDIA Apex, LN Triton, and
// SpaceFusion across input sizes (M = N) and architectures.
//
// Paper reference: SpaceFusion avg 7.25x over PyTorch; up to 1.59x over
// PyTorch Op, 2.46x over Apex, 4.03x over LN Triton. Volta sweeps to 16K,
// Ampere/Hopper to 32K.
#include "bench/bench_util.h"

namespace spacefusion {
namespace {

void Run() {
  PrintHeader("Figure 12: Fused LayerNorm — speedup over unfused PyTorch");
  auto pytorch = MakePyTorchBaseline();
  std::vector<std::unique_ptr<Baseline>> fused;
  fused.push_back(MakeTorchOpLayerNorm());
  fused.push_back(MakeApexLayerNorm());
  fused.push_back(MakeTritonLayerNorm());

  double sf_sum = 0.0;
  int sf_count = 0;

  for (const GpuArch& arch : AllArchitectures()) {
    std::vector<std::int64_t> sizes = {1024, 2048, 4096, 8192, 16384};
    if (arch.name != "Volta") {
      sizes.push_back(32768);
    }
    std::printf("\n[%s]\n", arch.name.c_str());
    std::vector<std::string> cols;
    for (std::int64_t s : sizes) {
      cols.push_back(s >= 1024 ? std::to_string(s / 1024) + "K" : std::to_string(s));
    }
    PrintSeriesHeader("impl \\ M=N", cols);

    std::vector<std::vector<double>> rows(fused.size() + 1);
    for (std::int64_t size : sizes) {
      Graph g = BuildLayerNormGraph(size, size);
      double base = BaselineTimeUs(g, *pytorch, arch);
      for (size_t i = 0; i < fused.size(); ++i) {
        rows[i].push_back(Speedup(base, BaselineTimeUs(g, *fused[i], arch)));
      }
      double sf = Speedup(base, SpaceFusionTimeUs(g, arch));
      rows.back().push_back(sf);
      if (sf > 0) {
        sf_sum += sf;
        ++sf_count;
      }
    }
    for (size_t i = 0; i < fused.size(); ++i) {
      PrintRow(fused[i]->name(), rows[i]);
    }
    PrintRow("SpaceFusion", rows.back());
  }
  std::printf("\nSpaceFusion avg speedup over PyTorch: %.2fx (paper: 7.25x)\n",
              sf_count ? sf_sum / sf_count : 0.0);
}

}  // namespace
}  // namespace spacefusion

int main() {
  spacefusion::SetLogThreshold(spacefusion::LogLevel::kWarning);
  spacefusion::Run();
  return 0;
}
