// Reproduces paper Fig. 11: fused MLP (vs cuBLASLt) and fused LSTM cell
// (vs cuBLAS) subgraph performance across the three architectures.
//
// Paper reference: MLP max 3.15x / avg 2.35x over cuBLASLt (2..20 fused
// layers, N=K<=256); LSTM max 2.87x / avg 2.29x over cuBLAS (hidden
// 128..1024).
#include "bench/bench_util.h"

namespace spacefusion {
namespace {

void RunMlp() {
  PrintHeader("Figure 11(a): Fused MLP layers — speedup of SpaceFusion over cuBLASLt");
  auto cublaslt = MakeCublasLtBaseline();
  const std::int64_t nk = 256;  // fusion opportunity exists for N=K <= 256

  for (const GpuArch& arch : AllArchitectures()) {
    std::printf("\n[%s]  (N=K=%lld; series = computational scale M)\n", arch.name.c_str(),
                static_cast<long long>(nk));
    std::vector<std::string> cols;
    std::vector<int> layer_counts = {2, 4, 6, 8, 10, 12, 14, 16, 18, 20};
    for (int layers : layer_counts) {
      cols.push_back(std::to_string(layers));
    }
    PrintSeriesHeader("M \\ layers", cols);

    double sum = 0.0, max = 0.0;
    int count = 0;
    for (std::int64_t m : {512, 2048, 8192}) {
      std::vector<double> speedups;
      for (int layers : layer_counts) {
        Graph g = BuildMlp(layers, m, nk, nk);
        double s = Speedup(BaselineTimeUs(g, *cublaslt, arch), SpaceFusionTimeUs(g, arch));
        speedups.push_back(s);
        if (s > 0) {
          sum += s;
          max = std::max(max, s);
          ++count;
        }
      }
      PrintRow(std::to_string(m), speedups);
    }
    std::printf("  %s summary: max %.2fx, avg %.2fx (paper: max 3.15x, avg 2.35x)\n",
                arch.name.c_str(), max, count ? sum / count : 0.0);
  }
}

void RunLstm() {
  PrintHeader("Figure 11(b): Fused LSTM cell — speedup of SpaceFusion over cuBLAS");
  auto cublas = MakeCublasBaseline();
  const std::int64_t batch = 256;

  std::vector<std::string> cols = {"128", "256", "512", "1k"};
  std::printf("\n(batch=%lld; columns = hidden state features)\n",
              static_cast<long long>(batch));
  PrintSeriesHeader("arch \\ hidden", cols);
  for (const GpuArch& arch : AllArchitectures()) {
    std::vector<double> speedups;
    double sum = 0.0, max = 0.0;
    for (std::int64_t hidden : {128, 256, 512, 1024}) {
      Graph g = BuildLstmCell(batch, hidden, hidden);
      double s = Speedup(BaselineTimeUs(g, *cublas, arch), SpaceFusionTimeUs(g, arch));
      speedups.push_back(s);
      sum += s;
      max = std::max(max, s);
    }
    PrintRow(arch.name, speedups);
    std::printf("  %s summary: max %.2fx, avg %.2fx (paper: max 2.87x, avg 2.29x)\n",
                arch.name.c_str(), max, sum / 4.0);
  }
}

}  // namespace
}  // namespace spacefusion

int main() {
  spacefusion::SetLogThreshold(spacefusion::LogLevel::kWarning);
  spacefusion::RunMlp();
  spacefusion::RunLstm();
  return 0;
}
