// Aggregation and regression-diff over compile observability artifacts.
//
// sf-stats is a thin CLI over this library: it loads a "run" from any of
// the formats the toolchain emits — a `sf-compile --report-dir` directory
// full of *.report.json CompileReports, a single CompileReport, a
// BENCH_compile.json from table5_model_compile --json, or a BENCH_exec.json
// from fig_wallclock --json — normalizes it into named numeric series, and
// either summarizes one run (top-N slowest passes / models, outcome counts)
// or diffs two runs flagging compile-time regressions.
//
// Series keys are hierarchical, "<model>/<metric>" (e.g.
// "bert/modeled_compile_s", "bert/pass/Tune"). Keys measuring host
// wall-clock carry a "wall/" component ("bert/wall/compile_ms"); diffs skip
// them by default so a CI gate against a checked-in baseline only compares
// deterministic modeled quantities and never trips on machine speed.
#ifndef SPACEFUSION_SRC_OBS_STATS_H_
#define SPACEFUSION_SRC_OBS_STATS_H_

#include <map>
#include <string>
#include <vector>

#include "src/obs/report.h"
#include "src/support/status.h"

namespace spacefusion {

// One loaded run: the normalized series plus (for report directories) the
// parsed reports themselves.
struct RunStats {
  std::string source;                    // path the run was loaded from
  std::string format;                    // "report_dir" | "bench_json" | "exec_json" | "report"
  std::vector<CompileReport> reports;    // empty unless format uses CompileReports
  std::map<std::string, double> series;  // key -> value, keys sorted
};

// True when `key` measures host wall-clock (any "wall" path component).
bool IsWallClockKey(const std::string& key);

// Loads a run, dispatching on shape: a directory is read as a report dir
// (every *.report.json inside); a file is parsed and classified by its
// top-level keys ("workloads" = BENCH_exec.json, "models" =
// BENCH_compile.json, "request_id" = a single CompileReport).
StatusOr<RunStats> LoadRunStats(const std::string& path);

StatusOr<RunStats> LoadReportDirStats(const std::string& dir);
StatusOr<RunStats> LoadBenchJsonStats(const std::string& path);
// BENCH_exec.json from bench/fig_wallclock (top-level "workloads" object):
// real wall-clock of fused-jit vs unfused-jit vs interpreter execution per
// workload/model, plus the jit cache hit rate.
StatusOr<RunStats> LoadExecJsonStats(const std::string& path);

struct DiffOptions {
  // A key regresses when current > base * (1 + threshold) and the absolute
  // growth exceeds min_abs_delta (guards 0-vs-epsilon noise).
  double threshold = 0.10;
  double min_abs_delta = 1e-6;
  // Compare "wall/" keys too. Off by default: wall times are machine
  // dependent, and the CI baseline gate must not depend on runner speed.
  bool include_wall = false;
};

struct DiffEntry {
  std::string key;
  double base = 0.0;
  double current = 0.0;
  double delta_pct = 0.0;  // 100 * (current - base) / base; 0 when base == 0
  bool regression = false;
};

struct DiffResult {
  std::vector<DiffEntry> entries;         // keys in both runs, sorted
  std::vector<std::string> only_base;     // keys missing from current
  std::vector<std::string> only_current;  // keys missing from base
  int regressions = 0;
};

DiffResult DiffRuns(const RunStats& base, const RunStats& current, const DiffOptions& options);

// Human-readable single-run summary: outcome counts, top-N slowest models
// and passes, tuning funnel totals.
std::string RenderSummary(const RunStats& run, int top_n);

// Human-readable diff: regressed keys first, then improvements/unchanged
// counts and key-coverage mismatches.
std::string RenderDiff(const DiffResult& diff, const DiffOptions& options);

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_OBS_STATS_H_
