// Resource-aware slicing — the paper's Algorithm 1.
//
// Spatial slicing first (all eligible dims), then temporal slicing of the
// highest-priority remaining dim; each stage enumerates the block-size
// configurations that respect the hardware resource bounds. The result is a
// schedule template plus its feasible search space; an empty search space
// means the SMG is unschedulable and must be partitioned (Algorithm 2).
#ifndef SPACEFUSION_SRC_SCHEDULE_RESOURCE_AWARE_H_
#define SPACEFUSION_SRC_SCHEDULE_RESOURCE_AWARE_H_

#include "src/schedule/search_space.h"
#include "src/support/status.h"

namespace spacefusion {

struct SlicingOptions {
  // Ablation toggles (paper Sec. 6.4): Base(SS) disables both; Base+AS
  // keeps auto-scheduling but no temporal slicing; Base+TS the reverse.
  bool enable_temporal = true;
  // false: dependency transformation (UTA) is unavailable — models Welder-
  // class tile-stitching compilers.
  bool allow_uta = true;
  // Smallest tile extent for non-free dims (see EnumerateConfigs).
  std::int64_t min_block = 1;
};

struct SlicingResult {
  SmgSchedule schedule;                 // slicing decisions (block sizes TBD)
  std::vector<ScheduleConfig> configs;  // feasible search space
  // Parallel to `configs`: the screening footprint captured while each
  // config was applied during enumeration (tuner stage-1 input).
  std::vector<ConfigFootprint> footprints;
  // Wall-clock spent in EnumerateConfigs for this kernel (Table 4's enumCfg
  // column; the engine sums it over the candidate programs).
  double enum_cfg_ms = 0.0;
};

// Runs Algorithm 1 on a subprogram. Fails with kUnschedulable when the SMG
// has no parallelizable dim or no config fits the resource bounds.
StatusOr<SlicingResult> ResourceAwareSlicing(const Graph& graph, const ResourceConfig& rc,
                                             const SlicingOptions& options = SlicingOptions());

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_SCHEDULE_RESOURCE_AWARE_H_
