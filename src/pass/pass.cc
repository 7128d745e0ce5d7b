#include "src/pass/pass.h"

#include <chrono>
#include <cstdio>
#include <ctime>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/support/string_util.h"

namespace spacefusion {

CompileOptions::CompileOptions() : arch(AmpereA100()) {}

void FusionPatternRecorder::Record(const Graph& kernel_graph) {
  int a2o_ops = 0;
  bool has_ci = false;
  bool has_mi = false;
  for (const Op& op : kernel_graph.ops()) {
    if (op.kind == OpKind::kMatMul || op.kind == OpKind::kReduce) {
      ++a2o_ops;
    }
    if (op.compute_intensive()) {
      has_ci = true;
    } else {
      has_mi = true;
    }
  }
  if (a2o_ops < 2) {
    return;  // Table 6 counts fused subgraphs with >= 2 All-to-Ones
  }
  std::uint64_t topo = kernel_graph.TopologyHash();
  MutexLock lock(mu_);
  if (seen_patterns_.count(topo) > 0) {
    return;
  }
  seen_patterns_.emplace(topo, true);
  ++stats_.total;
  if (has_ci && has_mi) {
    ++stats_.ci_and_mi;
  } else if (has_ci) {
    ++stats_.ci_only;
  } else {
    ++stats_.mi_only;
  }
}

FusionPatternStats FusionPatternRecorder::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

std::string CompilationState::DumpArtifacts() const {
  std::string out;
  if (graph != nullptr) {
    out += StrCat("graph: ", graph->name(), " (", graph->ops().size(), " ops, ",
                  graph->tensors().size(), " tensors)\n");
  }
  if (!components.empty()) {
    out += StrCat("components: ", components.size(), "\n");
  }
  for (size_t i = 0; i < component_smgs.size(); ++i) {
    out += StrCat("smg[", i, "]:\n", component_smgs[i].smg.ToString());
  }
  if (!pipeline.candidates.empty()) {
    out += StrCat("candidate programs: ", pipeline.candidates.size(), "\n");
    for (size_t ci = 0; ci < pipeline.candidates.size(); ++ci) {
      const ProgramCandidate& candidate = pipeline.candidates[ci];
      out += StrCat("candidate[", ci, "]: ", candidate.kernels.size(), " kernels, ",
                    candidate.partition_rounds, " partition rounds\n");
      for (const SlicingResult& kernel : candidate.kernels) {
        out += kernel.schedule.ToString();
        out += StrCat("  configs: ", kernel.configs.size(), "\n");
      }
    }
  }
  if (enumerated_configs > 0) {
    out += StrCat("enumerated configs: ", enumerated_configs, "\n");
  }
  if (have_best) {
    out += StrCat("best: ", best.kernels.size(), " kernels, est ", best.estimate.time_us,
                  " us, tuning ", best.tuning.simulated_tuning_seconds, " s\n");
    for (const SmgSchedule& kernel : best.program.kernels) {
      out += kernel.ToString();
    }
  }
  return out;
}

bool PassDumpRequested(const std::string& dump_spec, const char* pass_name) {
  if (dump_spec.empty()) {
    return false;
  }
  if (dump_spec == "all" || dump_spec == "*") {
    return true;
  }
  const std::string name(pass_name);
  size_t begin = 0;
  while (begin <= dump_spec.size()) {
    size_t end = dump_spec.find(',', begin);
    if (end == std::string::npos) {
      end = dump_spec.size();
    }
    if (dump_spec.compare(begin, end - begin, name) == 0) {
      return true;
    }
    begin = end + 1;
  }
  return false;
}

PassManagerOptions::PassManagerOptions() {
  dump_sink = [](const std::string& pass_name, const std::string& text) {
    std::string block =
        StrCat("=== dump-after-pass: ", pass_name, " ===\n", text, "=== end ", pass_name, " ===\n");
    std::fwrite(block.data(), 1, block.size(), stderr);
  };
}

PassManager::PassManager(std::vector<std::unique_ptr<Pass>> passes, PassManagerOptions options)
    : passes_(std::move(passes)), options_(std::move(options)) {}

Status PassManager::Run(CompilationState* state) {
  timings_.clear();
  const bool verify_on =
      state->options != nullptr && state->options->verify != VerifyMode::kOff;
  Status status = Status::Ok();
  for (const std::unique_ptr<Pass>& pass : passes_) {
    const std::string span_name = StrCat("pass.", pass->name());
    auto start = std::chrono::steady_clock::now();
    std::clock_t cpu_start = std::clock();
    {
      ScopedSpan span(span_name.c_str(), "pass");
      if (verify_on) {
        status = pass->VerifyBefore(state);
      }
      if (status.ok()) {
        status = pass->Run(state);
      }
      if (status.ok() && verify_on) {
        status = pass->VerifyAfter(state);
      }
    }
    double cpu_ms = 1e3 * static_cast<double>(std::clock() - cpu_start) / CLOCKS_PER_SEC;
    double ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
                    .count();
    timings_.push_back({pass->name(), ms, cpu_ms});
    MetricsRegistry::Global().GetCounter(StrCat(span_name, ".runs")).Increment(1);
    MetricsRegistry::Global().GetHistogram(StrCat(span_name, ".ms")).Observe(ms);
    if (!status.ok()) {
      break;
    }
    if (PassDumpRequested(options_.dump_after_pass, pass->name()) && options_.dump_sink) {
      options_.dump_sink(pass->name(), state->DumpArtifacts());
    }
  }
  return status;
}

double PassManager::PassMs(const std::string& pass_name) const {
  for (const PassTiming& timing : timings_) {
    if (timing.pass == pass_name) {
      return timing.ms;
    }
  }
  return 0.0;
}

}  // namespace spacefusion
