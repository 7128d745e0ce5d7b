#include "src/schedule/search_space.h"

#include <algorithm>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/schedule/lowering.h"
#include "src/slicing/dim_analysis.h"
#include "src/support/math_util.h"

namespace spacefusion {

namespace {

// Largest tile extent enumerated along any dim.
constexpr std::int64_t kMaxBlock = 256;
// Hard cap on emitted configs (exhaustive tuning stays cheap).
constexpr size_t kMaxConfigs = 256;

// Candidate tile extents for one spatial dim.
std::vector<std::int64_t> SpatialCandidates(const Smg& smg, DimId dim, std::int64_t min_block) {
  std::int64_t extent = smg.dim(dim).extent;
  DimClass cls = AnalyzeDim(smg, dim).cls;
  if (cls == DimClass::kFree) {
    // Dependency-free dims (batch, heads) parallelize fully; tiling them
    // only reduces parallelism without any locality benefit.
    return {1};
  }
  std::vector<std::int64_t> out;
  for (std::int64_t b = min_block; b <= std::min(extent, kMaxBlock); b *= 2) {
    out.push_back(b);
  }
  if (out.empty()) {
    out.push_back(std::min(extent, min_block));
  }
  if (extent <= kMaxBlock && out.back() != extent) {
    out.push_back(extent);
  }
  return out;
}

std::vector<std::int64_t> TemporalCandidates(const Smg& smg, DimId dim) {
  std::int64_t extent = smg.dim(dim).extent;
  std::vector<std::int64_t> out;
  for (std::int64_t b = 16; b <= std::min(extent, kMaxBlock); b *= 2) {
    out.push_back(b);
  }
  if (out.empty()) {
    out.push_back(extent);
  }
  return out;
}

}  // namespace

std::vector<ScheduleConfig> EnumerateConfigs(SmgSchedule* schedule, const ResourceConfig& rc,
                                             bool include_temporal, std::int64_t min_block,
                                             std::vector<ConfigFootprint>* footprints) {
  ScopedSpan span("search.enum_cfg", "search");
  span.Arg("graph", schedule->graph.name()).Arg("temporal", include_temporal ? 1 : 0);
  const Smg& smg = schedule->built.smg;

  std::vector<std::vector<std::int64_t>> per_dim;
  per_dim.reserve(schedule->spatial.size());
  for (const DimSlice& s : schedule->spatial) {
    per_dim.push_back(SpatialCandidates(smg, s.dim, min_block));
  }

  std::vector<std::int64_t> temporal_steps;
  if (include_temporal && schedule->has_temporal) {
    temporal_steps = TemporalCandidates(smg, schedule->temporal.dim);
  } else {
    temporal_steps = {0};  // sentinel: temporal disabled
  }

  std::vector<ScheduleConfig> feasible;
  bool capped = false;
  std::vector<size_t> index(per_dim.size(), 0);
  bool done = per_dim.empty() && temporal_steps.empty();
  while (!done && !capped) {
    for (std::int64_t step : temporal_steps) {
      ScheduleConfig config;
      config.spatial_blocks.reserve(per_dim.size());
      for (size_t i = 0; i < per_dim.size(); ++i) {
        config.spatial_blocks.push_back(per_dim[i][index[i]]);
      }
      config.use_temporal = step > 0;
      config.temporal_step = step;

      schedule->ApplyConfig(config);
      PlanMemory(schedule, rc);
      if (!CheckResources(*schedule, rc)) {
        continue;
      }
      if (footprints != nullptr) {
        footprints->push_back(ComputeConfigFootprint(*schedule));
      }
      feasible.push_back(std::move(config));
      if (feasible.size() >= kMaxConfigs) {
        capped = true;
        break;
      }
    }
    // Advance the cartesian iterator.
    done = true;
    for (size_t i = 0; i < index.size(); ++i) {
      if (++index[i] < per_dim[i].size()) {
        done = false;
        break;
      }
      index[i] = 0;
    }
    if (per_dim.empty()) {
      break;
    }
  }
  span.Arg("configs", static_cast<std::int64_t>(feasible.size()));
  if (capped) {
    span.Arg("capped", 1);
  }
  SF_COUNTER_ADD("search.configs_enumerated", static_cast<std::int64_t>(feasible.size()));
  SF_HISTOGRAM_OBSERVE("search.configs_per_kernel", static_cast<double>(feasible.size()));
  return feasible;
}

}  // namespace spacefusion
