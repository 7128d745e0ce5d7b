#include "src/obs/stats.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/support/json.h"
#include "src/support/string_util.h"

namespace spacefusion {

namespace {

std::string FormatNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return NotFound(StrCat("cannot read ", path));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Series name for one report. Request ids are deterministic across
// identical runs, so keying by them keeps two runs of the same workload
// diffable; the model name is kept as a prefix for readability.
std::string ReportKeyBase(const CompileReport& report) {
  return report.model.empty() ? report.request_id
                              : StrCat(report.model, "/", report.request_id);
}

void AddReportSeries(const CompileReport& report, std::map<std::string, double>* series) {
  const std::string base = ReportKeyBase(report);
  (*series)[StrCat(base, "/wall/compile_ms")] = report.wall_ms;
  (*series)[StrCat(base, "/tuning_seconds")] = report.tuning_seconds;
  (*series)[StrCat(base, "/configs_enumerated")] = static_cast<double>(report.configs_enumerated);
  (*series)[StrCat(base, "/configs_screened")] = static_cast<double>(report.configs_screened);
  (*series)[StrCat(base, "/configs_admitted")] = static_cast<double>(report.configs_admitted);
  (*series)[StrCat(base, "/modeled_time_us")] = report.modeled_time_us;
  // Shape-bucketed requests: deterministic routing/transfer counters (a
  // cold-vs-warm diff catching a bucket that re-tuned is the point), only
  // present when the report was bucket-routed. Misses, not hits: --diff
  // reads growth as a regression, so a warm run's bucket hit must show as
  // a miss going away.
  if (!report.bucket.empty()) {
    (*series)[StrCat(base, "/bucket/misses")] = report.bucket_hit ? 0.0 : 1.0;
    (*series)[StrCat(base, "/bucket/transfer_seeded")] =
        static_cast<double>(report.transfer_seeded);
  }
  for (const PassReportEntry& pass : report.passes) {
    (*series)[StrCat(base, "/wall/pass/", pass.pass)] = pass.wall_ms;
  }
}

// One BENCH_exec.json entry (a workload or the jit_cache block): every
// numeric field becomes a series. Microsecond/millisecond fields and the
// speedup ratios derived from them are host wall-clock, so they go under
// "wall/" and only an --include-wall diff (the generously thresholded
// jit-exec gate) compares them.
void AddExecSeries(const std::string& prefix, const JsonValue& entry,
                   std::map<std::string, double>* series) {
  for (const auto& [field, value] : entry.members()) {
    if (!value.is_number()) {
      continue;
    }
    const bool wall =
        (field.size() > 3 && (field.compare(field.size() - 3, 3, "_us") == 0 ||
                              field.compare(field.size() - 3, 3, "_ms") == 0)) ||
        field.find("speedup") != std::string::npos;
    (*series)[wall ? StrCat(prefix, "/wall/", field) : StrCat(prefix, "/", field)] =
        value.number();
  }
}

}  // namespace

bool IsWallClockKey(const std::string& key) {
  size_t pos = 0;
  while (pos <= key.size()) {
    size_t end = key.find('/', pos);
    if (end == std::string::npos) {
      end = key.size();
    }
    if (key.compare(pos, end - pos, "wall") == 0) {
      return true;
    }
    pos = end + 1;
  }
  return false;
}

StatusOr<RunStats> LoadReportDirStats(const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return NotFound(StrCat("cannot list report directory ", dir, ": ", ec.message()));
  }
  std::vector<std::string> paths;
  for (const std::filesystem::directory_entry& entry : it) {
    std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name.size() > 12 &&
        name.compare(name.size() - 12, 12, ".report.json") == 0) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());  // directory order is unspecified

  RunStats run;
  run.source = dir;
  run.format = "report_dir";
  for (const std::string& path : paths) {
    SF_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
    SF_ASSIGN_OR_RETURN(CompileReport report, CompileReport::FromJson(text));
    AddReportSeries(report, &run.series);
    run.reports.push_back(std::move(report));
  }
  return run;
}

StatusOr<RunStats> LoadBenchJsonStats(const std::string& path) {
  SF_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  SF_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(text));
  const JsonValue* models = doc.Get("models");
  if (models == nullptr || !models->is_object()) {
    return InvalidArgument(StrCat(path, ": not a BENCH_compile.json document"));
  }
  RunStats run;
  run.source = path;
  run.format = "bench_json";
  for (const auto& [name, model] : models->members()) {
    for (const char* mode : {"screened", "exhaustive"}) {
      const JsonValue* entry = model.Get(mode);
      if (entry == nullptr || !entry->is_object()) {
        continue;
      }
      run.series[StrCat(name, "/", mode, "/modeled_compile_s")] =
          entry->GetNumber("modeled_compile_s");
      run.series[StrCat(name, "/", mode, "/configs_screened")] =
          entry->GetNumber("configs_screened");
      run.series[StrCat(name, "/", mode, "/configs_evaluated")] =
          entry->GetNumber("configs_evaluated");
      run.series[StrCat(name, "/", mode, "/wall/compile_ms")] = entry->GetNumber("compile_ms");
    }
  }
  return run;
}

StatusOr<RunStats> LoadExecJsonStats(const std::string& path) {
  SF_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  SF_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(text));
  const JsonValue* workloads = doc.Get("workloads");
  if (workloads == nullptr || !workloads->is_object()) {
    return InvalidArgument(StrCat(path, ": not a BENCH_exec.json document"));
  }
  RunStats run;
  run.source = path;
  run.format = "exec_json";
  for (const auto& [name, entry] : workloads->members()) {
    if (entry.is_object()) {
      AddExecSeries(name, entry, &run.series);
    }
  }
  if (const JsonValue* cache = doc.Get("jit_cache"); cache != nullptr && cache->is_object()) {
    AddExecSeries("jit_cache", *cache, &run.series);
  }
  return run;
}

StatusOr<RunStats> LoadRunStats(const std::string& path) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    return LoadReportDirStats(path);
  }
  SF_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  SF_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(text));
  if (doc.Get("workloads") != nullptr) {
    return LoadExecJsonStats(path);
  }
  if (doc.Get("models") != nullptr) {
    return LoadBenchJsonStats(path);
  }
  if (doc.Get("request_id") != nullptr) {
    SF_ASSIGN_OR_RETURN(CompileReport report, CompileReport::FromJson(text));
    RunStats run;
    run.source = path;
    run.format = "report";
    AddReportSeries(report, &run.series);
    run.reports.push_back(std::move(report));
    return run;
  }
  return InvalidArgument(
      StrCat(path, ": unrecognized document (expected a report directory, a CompileReport, "
                   "BENCH_compile.json or BENCH_exec.json)"));
}

DiffResult DiffRuns(const RunStats& base, const RunStats& current, const DiffOptions& options) {
  DiffResult result;
  for (const auto& [key, base_value] : base.series) {
    if (!options.include_wall && IsWallClockKey(key)) {
      continue;
    }
    auto it = current.series.find(key);
    if (it == current.series.end()) {
      result.only_base.push_back(key);
      continue;
    }
    DiffEntry entry;
    entry.key = key;
    entry.base = base_value;
    entry.current = it->second;
    entry.delta_pct = base_value != 0.0 ? 100.0 * (entry.current - base_value) / base_value : 0.0;
    entry.regression = entry.current > base_value * (1.0 + options.threshold) &&
                       entry.current - base_value > options.min_abs_delta;
    if (entry.regression) {
      ++result.regressions;
    }
    result.entries.push_back(std::move(entry));
  }
  for (const auto& [key, value] : current.series) {
    if (!options.include_wall && IsWallClockKey(key)) {
      continue;
    }
    if (base.series.find(key) == base.series.end()) {
      result.only_current.push_back(key);
    }
  }
  return result;
}

std::string RenderSummary(const RunStats& run, int top_n) {
  std::string out = StrCat("run: ", run.source, " (", run.format, ")\n");

  if (!run.reports.empty()) {
    int cold = 0;
    int hits = 0;
    int persistent_hits = 0;
    int errors = 0;
    int collisions = 0;
    int bucketed = 0;
    int bucket_hits = 0;
    long long transfer_seeded = 0;
    for (const CompileReport& report : run.reports) {
      if (report.outcome == "cold") {
        ++cold;
      } else if (report.outcome == "cache_hit") {
        ++hits;
      } else if (report.outcome == "persistent_hit") {
        ++persistent_hits;
      } else if (report.outcome == "error") {
        ++errors;
      }
      if (report.cache_collision) {
        ++collisions;
      }
      if (!report.bucket.empty()) {
        ++bucketed;
        if (report.bucket_hit) {
          ++bucket_hits;
        }
        transfer_seeded += report.transfer_seeded;
      }
    }
    out += StrCat("reports: ", run.reports.size(), " (", cold, " cold, ", hits, " cache hit(s), ",
                  persistent_hits, " persistent hit(s), ", errors, " error(s), ", collisions,
                  " collision(s))\n");
    if (bucketed > 0) {
      out += StrCat("shape buckets: ", bucketed, " bucketed report(s), ", bucket_hits,
                    " bucket hit(s), ", transfer_seeded, " transfer-seeded config(s)\n");
    }
    for (const CompileReport& report : run.reports) {
      if (report.outcome == "error") {
        out += StrCat("  failed ", report.request_id,
                      report.model.empty() ? "" : StrCat(" (", report.model, ")"), ": ",
                      report.status_message, "\n");
      }
    }
  }

  // Slowest models by end-to-end wall, slowest passes by summed wall. The
  // label is everything before the wall suffix — "Bert/req-000002" for a
  // report key, "Bert/screened" for a bench key — so per-request entries
  // stay distinguishable.
  constexpr const char* kWallSuffix = "/wall/compile_ms";
  const size_t suffix_len = std::char_traits<char>::length(kWallSuffix);
  std::vector<std::pair<std::string, double>> models;
  std::map<std::string, double> pass_totals;
  for (const auto& [key, value] : run.series) {
    if (key.size() > suffix_len &&
        key.compare(key.size() - suffix_len, suffix_len, kWallSuffix) == 0) {
      models.emplace_back(key.substr(0, key.size() - suffix_len), value);
    }
    size_t pass_pos = key.rfind("/pass/");
    if (pass_pos != std::string::npos) {
      pass_totals[key.substr(pass_pos + 6)] += value;
    }
  }
  std::sort(models.begin(), models.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (!models.empty()) {
    out += StrCat("slowest models (wall ms):\n");
    for (size_t i = 0; i < models.size() && i < static_cast<size_t>(top_n); ++i) {
      out += StrCat("  ", models[i].first, "  ", FormatNumber(models[i].second), "\n");
    }
  }
  std::vector<std::pair<std::string, double>> passes(pass_totals.begin(), pass_totals.end());
  std::sort(passes.begin(), passes.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (!passes.empty()) {
    out += "slowest passes (summed wall ms):\n";
    for (size_t i = 0; i < passes.size() && i < static_cast<size_t>(top_n); ++i) {
      out += StrCat("  ", passes[i].first, "  ", FormatNumber(passes[i].second), "\n");
    }
  }

  // Exec benches carry no CompileReports or pass keys; summarize the
  // slowest execution times and the jit cache hit rate instead.
  if (run.format == "exec_json") {
    std::vector<std::pair<std::string, double>> walls;
    for (const auto& [key, value] : run.series) {
      if (key.size() > 3 && key.compare(key.size() - 3, 3, "_us") == 0) {
        walls.emplace_back(key, value);
      }
    }
    std::sort(walls.begin(), walls.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    if (!walls.empty()) {
      out += "slowest executions (wall us):\n";
      for (size_t i = 0; i < walls.size() && i < static_cast<size_t>(top_n); ++i) {
        out += StrCat("  ", walls[i].first, "  ", FormatNumber(walls[i].second), "\n");
      }
    }
    auto hit_rate = run.series.find("jit_cache/hit_rate");
    if (hit_rate != run.series.end()) {
      out += StrCat("jit cache hit rate: ", FormatNumber(hit_rate->second), "\n");
    }
  }
  return out;
}

std::string RenderDiff(const DiffResult& diff, const DiffOptions& options) {
  std::string out;
  char pct[32];
  std::snprintf(pct, sizeof(pct), "%.0f%%", options.threshold * 100.0);
  for (const DiffEntry& entry : diff.entries) {
    if (!entry.regression) {
      continue;
    }
    out += StrCat("REGRESSION ", entry.key, ": ", FormatNumber(entry.base), " -> ",
                  FormatNumber(entry.current), " (+", FormatNumber(entry.delta_pct), "%)\n");
  }
  int improved = 0;
  int unchanged = 0;
  for (const DiffEntry& entry : diff.entries) {
    if (entry.regression) {
      continue;
    }
    if (entry.current < entry.base) {
      ++improved;
    } else {
      ++unchanged;
    }
  }
  out += StrCat(diff.regressions, " regression(s) over ", pct, " threshold, ", improved,
                " improved, ", unchanged, " unchanged-or-within-threshold (",
                diff.entries.size(), " compared key(s))\n");
  if (!diff.only_base.empty()) {
    out += StrCat("  ", diff.only_base.size(), " key(s) only in baseline, e.g. ",
                  diff.only_base.front(), "\n");
  }
  if (!diff.only_current.empty()) {
    out += StrCat("  ", diff.only_current.size(), " key(s) only in current, e.g. ",
                  diff.only_current.front(), "\n");
  }
  return out;
}

}  // namespace spacefusion
