// Shared helpers for the evaluation harness: every bench binary regenerates
// one table or figure of the paper (see DESIGN.md's per-experiment index)
// and prints the same rows/series the paper reports.
#ifndef SPACEFUSION_BENCH_BENCH_UTIL_H_
#define SPACEFUSION_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "src/core/spacefusion.h"
#include "src/support/logging.h"

namespace spacefusion {

// Wall-clock stopwatch for bench phases.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void Reset() { start_ = std::chrono::steady_clock::now(); }
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start_)
        .count();
  }
  double ElapsedSeconds() const { return ElapsedMs() * 1e-3; }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void PrintSeriesHeader(const std::string& row_label,
                              const std::vector<std::string>& columns) {
  std::printf("%-28s", row_label.c_str());
  for (const std::string& c : columns) {
    std::printf(" %12s", c.c_str());
  }
  std::printf("\n");
}

inline void PrintRow(const std::string& label, const std::vector<double>& values,
                     const char* format = "%12.2f") {
  std::printf("%-28s", label.c_str());
  for (double v : values) {
    if (v <= 0) {
      std::printf(" %12s", "-");
    } else {
      std::printf(" ");
      std::printf(format, v);
    }
  }
  std::printf("\n");
}

// Simulated time of one subgraph under SpaceFusion (µs), or -1 on failure.
inline double SpaceFusionTimeUs(const Graph& graph, const GpuArch& arch) {
  CompilerEngine engine{CompileOptions(arch)};
  StatusOr<CompiledSubprogram> compiled = engine.Compile(graph);
  return compiled.ok() ? compiled->estimate.time_us : -1.0;
}

// Simulated time of one subgraph under a baseline (µs), or -1 if the
// baseline does not support it on this architecture.
inline double BaselineTimeUs(const Graph& graph, const Baseline& baseline, const GpuArch& arch) {
  std::optional<ExecutionReport> report = EstimateGraphWithBaseline(graph, baseline, arch);
  return report ? report->time_us : -1.0;
}

inline double Speedup(double baseline_us, double ours_us) {
  if (baseline_us <= 0 || ours_us <= 0) {
    return -1.0;
  }
  return baseline_us / ours_us;
}

}  // namespace spacefusion

#endif  // SPACEFUSION_BENCH_BENCH_UTIL_H_
