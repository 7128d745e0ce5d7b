#include "src/tuning/tuner.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/schedule/lowering.h"
#include "src/support/logging.h"

namespace spacefusion {

namespace {

std::uint64_t HashCombine(std::uint64_t h, std::uint64_t v) {
  return h ^ (v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
}

}  // namespace

std::uint64_t TransferSignature(const SmgSchedule& schedule, const GpuArch& arch,
                                const ResourceConfig& rc) {
  std::uint64_t h = schedule.graph.TopologyHash();
  for (const DimSlice& slice : schedule.spatial) {
    h = HashCombine(h, static_cast<std::uint64_t>(slice.dim));
  }
  h = HashCombine(h, schedule.has_temporal ? static_cast<std::uint64_t>(schedule.temporal.dim) + 1
                                           : 0);
  h = HashCombine(h, std::hash<std::string>{}(arch.name));
  h = HashCombine(h, static_cast<std::uint64_t>(rc.smem_per_block_max));
  h = HashCombine(h, static_cast<std::uint64_t>(rc.reg_per_block_max));
  return h;
}

TuningStats TuneKernel(SlicingResult* result, const CostModel& cost, const ResourceConfig& rc,
                       const TunerOptions& options) {
  ScopedSpan span("tuner.measure", "tuning");
  span.Arg("kernel", result->schedule.graph.name())
      .Arg("search_space", static_cast<std::int64_t>(result->configs.size()));
  TuningStats stats;
  const std::int64_t n = static_cast<std::int64_t>(result->configs.size());
  SF_CHECK(n > 0) << "tuner called with empty search space";

  // ---- Stage 1: analytical screening --------------------------------------
  // Every config gets a closed-form lower-bound score from its enumeration
  // footprint (no ApplyConfig / PlanMemory / lowering). The screened top-K
  // plus the guaranteed-admission epsilon band reach full fidelity; the rest
  // are dropped. Ties in the score order break toward the lower index.
  const std::int64_t top_k = options.screen_top_k < 0
                                 ? std::max<std::int64_t>(8, n / 10)
                                 : static_cast<std::int64_t>(options.screen_top_k);
  const bool screening = top_k > 0 && top_k < n &&
                         result->footprints.size() == result->configs.size();
  std::vector<std::int64_t> admitted;  // ascending indices into configs
  if (screening) {
    ScopedSpan screen_span("tuner.screen", "tuning");
    const ScreenContext ctx = MakeScreenContext(result->schedule);
    std::vector<double> score;
    score.reserve(static_cast<size_t>(n));
    for (const ConfigFootprint& footprint : result->footprints) {
      score.push_back(cost.ScreenKernel(LowerForScreening(ctx, footprint)));
    }
    std::vector<std::int64_t> order(static_cast<size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&score](std::int64_t a, std::int64_t b) {
      double sa = score[static_cast<size_t>(a)], sb = score[static_cast<size_t>(b)];
      return sa < sb || (sa == sb && a < b);
    });
    std::vector<char> admit(static_cast<size_t>(n), 0);
    for (std::int64_t k = 0; k < top_k; ++k) {
      admit[static_cast<size_t>(order[static_cast<size_t>(k)])] = 1;
    }
    const double band = score[static_cast<size_t>(order[0])] * (1.0 + kScreenEpsilon);
    for (std::int64_t i = 0; i < n; ++i) {
      if (score[static_cast<size_t>(i)] <= band) {
        admit[static_cast<size_t>(i)] = 1;
      }
    }
    for (std::int64_t i = 0; i < n; ++i) {
      if (admit[static_cast<size_t>(i)] != 0) {
        admitted.push_back(i);
      }
    }
    stats.configs_screened = static_cast<int>(n);
    SF_COUNTER_ADD("tuner.configs_screened", n);
    screen_span.Arg("screened", n).Arg("admitted", static_cast<std::int64_t>(admitted.size()));
  } else {
    admitted.resize(static_cast<size_t>(n));
    std::iota(admitted.begin(), admitted.end(), 0);
  }

  // ---- Stage 2: full-fidelity measurement sweep ---------------------------
  // Configs are probed on one clone of the schedule, so the incoming block
  // sizes never matter and re-tuning is idempotent. time_us is indexed by
  // config; slots of configs that were not admitted stay unread.
  std::vector<double> time_us(static_cast<size_t>(n));
  SmgSchedule local = result->schedule;
  for (std::int64_t i : admitted) {
    local.ApplyConfig(result->configs[static_cast<size_t>(i)]);
    PlanMemory(&local, rc);
    AddressMap probe;
    time_us[static_cast<size_t>(i)] = cost.EstimateKernel(LowerSchedule(local, &probe)).time_us;
  }

  // Selection scan in config order: deterministic argmin, lowest index wins
  // ties. The winner never depends on a transfer prior, which only
  // reshuffles *when* the modeled GPU measures things.
  std::int64_t best_idx = -1;
  double best_time = 0.0;
  for (std::int64_t i : admitted) {
    double t = time_us[static_cast<size_t>(i)];
    ++stats.configs_tried;
    if (best_idx < 0 || t < best_time) {
      best_idx = i;
      best_time = t;
    }
  }

  // Measurement order on the modeled GPU: ascending config index, unless a
  // neighboring bucket's prior names admitted configs — those run first (in
  // prior order, i.e. the neighbor's best first), so a near-optimal
  // incumbent is established immediately and the rest early-quit.
  std::vector<std::int64_t> charge_order = admitted;
  if (options.transfer_prior) {
    const std::vector<std::string> prior = options.transfer_prior(result->schedule);
    if (!prior.empty()) {
      std::vector<char> taken(static_cast<size_t>(n), 0);
      std::vector<std::int64_t> seeded;
      for (const std::string& p : prior) {
        for (std::int64_t i : admitted) {
          if (taken[static_cast<size_t>(i)] == 0 &&
              result->configs[static_cast<size_t>(i)].ToString() == p) {
            taken[static_cast<size_t>(i)] = 1;
            seeded.push_back(i);
            break;
          }
        }
      }
      if (!seeded.empty()) {
        stats.configs_transfer_seeded = static_cast<int>(seeded.size());
        for (std::int64_t i : admitted) {
          if (taken[static_cast<size_t>(i)] == 0) {
            seeded.push_back(i);
          }
        }
        charge_order = std::move(seeded);
      }
    }
  }

  // Early-quit accounting over the measurement order: 20 warm-up + 100
  // timed runs per config, abandoned at alpha x the incumbent's total. Only
  // admitted configs are measured on the modeled GPU.
  const int total_runs = kWarmupRuns + kTimedRuns;
  double incumbent_time = 0.0;
  double incumbent_total = 0.0;  // incumbent's full measurement time (us)
  bool have_incumbent = false;
  for (std::int64_t i : charge_order) {
    const double t = time_us[static_cast<size_t>(i)];
    const double full_measurement = t * total_runs;
    double charged = full_measurement;
    if (options.enable_early_quit && have_incumbent &&
        full_measurement > kEarlyQuitAlpha * incumbent_total) {
      // The runner abandons this config once it has burned alpha x the
      // incumbent's total test time.
      charged = std::min(full_measurement, kEarlyQuitAlpha * incumbent_total + t);
      if (charged < full_measurement) {
        ++stats.configs_early_quit;
      }
    }
    stats.simulated_tuning_seconds += charged * 1e-6;
    if (!have_incumbent || t < incumbent_time) {
      have_incumbent = true;
      incumbent_time = t;
      incumbent_total = full_measurement;
    }
  }

  result->schedule.ApplyConfig(result->configs[static_cast<size_t>(best_idx)]);
  PlanMemory(&result->schedule, rc);
  stats.best_time_us = best_time;
  stats.transfer_signature = TransferSignature(result->schedule, cost.arch(), rc);

  // Export the admitted set best-measured-first: the transfer prior handed
  // to the next bucket (capped — a prior longer than this buys nothing).
  std::vector<std::int64_t> ranked = admitted;
  std::sort(ranked.begin(), ranked.end(), [&time_us](std::int64_t a, std::int64_t b) {
    const double ta = time_us[static_cast<size_t>(a)], tb = time_us[static_cast<size_t>(b)];
    return ta < tb || (ta == tb && a < b);
  });
  constexpr size_t kMaxPriorConfigs = 32;
  for (size_t k = 0; k < ranked.size() && k < kMaxPriorConfigs; ++k) {
    stats.admitted_configs.push_back(
        result->configs[static_cast<size_t>(ranked[k])].ToString());
  }

  SF_COUNTER_ADD("tuner.configs_tried", stats.configs_tried);
  SF_COUNTER_ADD("tuner.configs_early_quit", stats.configs_early_quit);
  SF_HISTOGRAM_OBSERVE("tuner.kernel_best_us", stats.best_time_us);
  span.Arg("configs_screened", stats.configs_screened)
      .Arg("configs_tried", stats.configs_tried)
      .Arg("early_quit", stats.configs_early_quit)
      .Arg("best_us", stats.best_time_us)
      .Arg("simulated_s", stats.simulated_tuning_seconds);
  return stats;
}

void ApplyExpertConfig(SlicingResult* result, const ResourceConfig& rc) {
  SF_TRACE_SPAN("tuner.expert_config", "tuning");
  SF_COUNTER_ADD("tuner.expert_configs_applied", 1);
  // Expert knowledge default: 64-wide tiles and a 64-element temporal step,
  // or the nearest feasible config.
  const ScheduleConfig* best = nullptr;
  double best_score = 0.0;
  for (const ScheduleConfig& config : result->configs) {
    double score = 0.0;
    for (std::int64_t b : config.spatial_blocks) {
      score -= std::fabs(std::log2(static_cast<double>(b)) - 6.0);
    }
    if (config.use_temporal) {
      // An expert writing a hand-fused kernel serializes the reduction dim
      // (the FlashAttention recipe), so temporal configs are preferred when
      // the slicers offer them.
      score += 100.0;
      score -= std::fabs(std::log2(static_cast<double>(config.temporal_step)) - 6.0);
    }
    if (best == nullptr || score > best_score) {
      best = &config;
      best_score = score;
    }
  }
  SF_CHECK(best != nullptr);
  result->schedule.ApplyConfig(*best);
  PlanMemory(&result->schedule, rc);
}

}  // namespace spacefusion
