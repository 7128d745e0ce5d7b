#include "src/schedule/resource_aware.h"

#include <chrono>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/slicing/slicers.h"
#include "src/support/logging.h"
#include "src/support/string_util.h"

namespace spacefusion {

namespace {

// EnumerateConfigs, with its wall-clock added to result->enum_cfg_ms.
std::vector<ScheduleConfig> TimedEnumerateConfigs(SlicingResult* result, const ResourceConfig& rc,
                                                  bool include_temporal,
                                                  std::int64_t min_block) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<ScheduleConfig> configs =
      EnumerateConfigs(&result->schedule, rc, include_temporal, min_block, &result->footprints);
  result->enum_cfg_ms +=
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start).count();
  return configs;
}

}  // namespace

StatusOr<SlicingResult> ResourceAwareSlicing(const Graph& graph, const ResourceConfig& rc,
                                             const SlicingOptions& options) {
  ScopedSpan slicing_span("slicing.resource_aware", "slicing");
  slicing_span.Arg("graph", graph.name());

  SmgBuildResult built;
  {
    SF_TRACE_SPAN("slicing.build_smg", "slicing");
    SF_ASSIGN_OR_RETURN(built, BuildSmg(graph));
  }
  SF_COUNTER_ADD("slicing.smgs_built", 1);

  SlicingResult result;
  result.schedule.graph = graph;
  result.schedule.built = std::move(built);
  SmgSchedule& sched = result.schedule;

  // --- Spatial slicing (Alg. 1 lines 3-8) --------------------------------
  {
    SF_TRACE_SPAN("slicing.spatial", "slicing");
    std::vector<DimId> spatial_dims = SpatialSlicer::GetDims(sched.built.smg);
    if (spatial_dims.empty()) {
      SF_COUNTER_ADD("slicing.unschedulable", 1);
      return Unschedulable(
          StrCat("SMG ", graph.name(), " has no spatially sliceable dim; cannot parallelize"));
    }
    for (DimId d : spatial_dims) {
      DimSlice s;
      s.dim = d;
      s.block = 1;
      sched.spatial.push_back(s);
    }

    std::vector<ScheduleConfig> spatial_configs =
        TimedEnumerateConfigs(&result, rc, /*include_temporal=*/false, options.min_block);
    for (ScheduleConfig& c : spatial_configs) {
      result.configs.push_back(std::move(c));
    }
  }

  // --- Temporal slicing (Alg. 1 lines 9-14) ------------------------------
  // Attempted whether or not spatial slicing alone met the resource bounds:
  // some SMGs only become efficient (or feasible at all) once serialized.
  if (options.enable_temporal) {
    SF_TRACE_SPAN("slicing.temporal", "slicing");
    std::vector<DimId> spatial_dims;
    for (const DimSlice& s : sched.spatial) {
      spatial_dims.push_back(s.dim);
    }
    StatusOr<TemporalChoice> choice =
        TemporalSlicer::GetPriorDim(graph, sched.built, spatial_dims, options.allow_uta);
    if (choice.ok()) {
      sched.has_temporal = true;
      sched.temporal.dim = choice->dim;
      sched.temporal.block = sched.built.smg.dim(choice->dim).extent;
      sched.plan = choice->plan;
      std::vector<ScheduleConfig> temporal_configs =
          TimedEnumerateConfigs(&result, rc, /*include_temporal=*/true, options.min_block);
      for (ScheduleConfig& c : temporal_configs) {
        result.configs.push_back(std::move(c));
      }
    }
  }
  slicing_span.Arg("configs", static_cast<std::int64_t>(result.configs.size()));

  if (result.configs.empty()) {
    SF_COUNTER_ADD("slicing.unschedulable", 1);
    return Unschedulable(StrCat("SMG ", graph.name(),
                                " exceeds hardware resource bounds under every enumerated "
                                "configuration"));
  }
  // Leave the schedule on its first feasible config so callers always see a
  // consistent memory plan.
  sched.ApplyConfig(result.configs.front());
  PlanMemory(&sched, rc);
  return result;
}

}  // namespace spacefusion
