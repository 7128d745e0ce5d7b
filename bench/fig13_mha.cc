// Reproduces paper Fig. 13: fused Multi-Head Attention performance.
// Speedups over the unfused PyTorch baseline for FlashAttention (CUDA v1),
// Triton FlashAttention, FlashAttention 2, and SpaceFusion, across sequence
// lengths, batch sizes 1 and 32, and the three architectures. FlashAttention
// CUDA kernels have no Volta support (absent entries, as in the paper).
//
// Paper reference: SpaceFusion max 10.35x / avg 5.40x over PyTorch, and
// comparable to FlashAttention 2.
#include "bench/bench_util.h"

namespace spacefusion {
namespace {

void Run() {
  PrintHeader("Figure 13: Fused MHA — speedup over unfused PyTorch");
  auto pytorch = MakePyTorchBaseline();
  std::vector<std::unique_ptr<Baseline>> fused;
  fused.push_back(MakeFlashAttention1());
  fused.push_back(MakeTritonFlashAttention());
  fused.push_back(MakeFlashAttention2());

  const std::int64_t heads = 12;
  const std::int64_t head_dim = 64;

  double sf_sum = 0.0, sf_max = 0.0;
  int sf_count = 0;

  for (std::int64_t batch : {1, 32}) {
    for (const GpuArch& arch : AllArchitectures()) {
      std::vector<std::int64_t> seqs = {64, 128, 256, 512, 1024};
      if (arch.name != "Volta") {
        seqs.push_back(2048);
        seqs.push_back(8192);
      }
      std::printf("\n[batch=%lld, %s]  (heads=12, head_dim=64)\n",
                  static_cast<long long>(batch), arch.name.c_str());
      std::vector<std::string> cols;
      for (std::int64_t s : seqs) {
        cols.push_back(s >= 1024 ? std::to_string(s / 1024) + "k" : std::to_string(s));
      }
      PrintSeriesHeader("impl \\ seq", cols);

      std::vector<std::vector<double>> rows(fused.size() + 1);
      for (std::int64_t seq : seqs) {
        Graph g = BuildMha(batch * heads, seq, seq, head_dim);
        double base = BaselineTimeUs(g, *pytorch, arch);
        for (size_t i = 0; i < fused.size(); ++i) {
          rows[i].push_back(Speedup(base, BaselineTimeUs(g, *fused[i], arch)));
        }
        double sf = Speedup(base, SpaceFusionTimeUs(g, arch));
        rows.back().push_back(sf);
        if (sf > 0) {
          sf_sum += sf;
          sf_max = std::max(sf_max, sf);
          ++sf_count;
        }
      }
      for (size_t i = 0; i < fused.size(); ++i) {
        PrintRow(fused[i]->name(), rows[i]);
      }
      PrintRow("SpaceFusion", rows.back());
    }
  }
  std::printf("\nSpaceFusion vs PyTorch: max %.2fx, avg %.2fx (paper: max 10.35x, avg 5.40x)\n",
              sf_max, sf_count ? sf_sum / sf_count : 0.0);
}

}  // namespace
}  // namespace spacefusion

int main() {
  spacefusion::SetLogThreshold(spacefusion::LogLevel::kWarning);
  spacefusion::Run();
  return 0;
}
