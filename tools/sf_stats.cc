// sf-stats: aggregate and diff compile observability artifacts.
//
// Summarizes one run — a --report-dir directory of CompileReports, a
// single CompileReport, a BENCH_compile.json, or a BENCH_exec.json
// wall-clock execution benchmark — printing outcome counts and the top-N
// slowest models/passes; or diffs two runs and flags compile-time
// regressions. Diffs compare only deterministic modeled quantities unless
// --include-wall is given, so a CI gate against a checked-in baseline
// never trips on runner speed.
//
//   sf-stats reports/                         # summarize a report directory
//   sf-stats reports/req-000001.report.json --top 3
//   sf-stats --diff BENCH_compile.baseline.json BENCH_compile.json
//   sf-stats --diff reports-a/ reports-b/ --threshold 25 --include-wall
//
// Exit codes: 0 clean, 1 regression(s) found, 2 usage or load error.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "src/obs/stats.h"
#include "src/support/logging.h"

namespace spacefusion {
namespace {

int Usage() {
  std::cerr << "usage: sf-stats RUN [--top N]\n"
               "       sf-stats --diff BASE CURRENT [--threshold PCT] [--include-wall]\n"
               "\n"
               "  RUN / BASE / CURRENT  a report directory (sf-compile --report-dir), a\n"
               "                        single *.report.json, a BENCH_compile.json from\n"
               "                        table5_model_compile --json, or a BENCH_exec.json\n"
               "                        from fig_wallclock\n"
               "  --top N               how many slowest models/passes to list (default 5)\n"
               "  --threshold PCT       regression threshold in percent (default 10)\n"
               "  --include-wall        also diff wall-clock keys (machine dependent)\n"
               "\n"
               "exit codes: 0 clean, 1 regression(s), 2 usage/load error\n";
  return 2;
}

int Run(int argc, char** argv) {
  bool diff_mode = false;
  int top_n = 5;
  DiffOptions diff_options;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--diff") {
      diff_mode = true;
      continue;
    }
    if (flag == "--include-wall") {
      diff_options.include_wall = true;
      continue;
    }
    if (flag == "--top" || flag == "--threshold") {
      if (i + 1 >= argc) {
        return Usage();
      }
      std::string value = argv[++i];
      if (flag == "--top") {
        top_n = std::atoi(value.c_str());
      } else {
        diff_options.threshold = std::atof(value.c_str()) / 100.0;
      }
      continue;
    }
    if (!flag.empty() && flag[0] == '-') {
      return Usage();
    }
    paths.push_back(flag);
  }
  if (top_n < 1 || diff_options.threshold < 0.0) {
    return Usage();
  }
  if ((diff_mode && paths.size() != 2) || (!diff_mode && paths.size() != 1)) {
    return Usage();
  }

  std::vector<RunStats> runs;
  for (const std::string& path : paths) {
    StatusOr<RunStats> run = LoadRunStats(path);
    if (!run.ok()) {
      std::cerr << "sf-stats: " << run.status().message() << "\n";
      return 2;
    }
    runs.push_back(std::move(run).value());
  }

  if (!diff_mode) {
    std::cout << RenderSummary(runs[0], top_n);
    return 0;
  }

  DiffResult diff = DiffRuns(runs[0], runs[1], diff_options);
  std::cout << "base:    " << runs[0].source << " (" << runs[0].format << ")\n"
            << "current: " << runs[1].source << " (" << runs[1].format << ")\n"
            << RenderDiff(diff, diff_options);
  return diff.regressions > 0 ? 1 : 0;
}

}  // namespace
}  // namespace spacefusion

int main(int argc, char** argv) {
  spacefusion::SetLogThreshold(spacefusion::LogLevel::kWarning);
  return spacefusion::Run(argc, argv);
}
