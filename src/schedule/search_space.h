// Schedule search-space generation (paper Sec. 5.1, last paragraph).
//
// Block sizes are enumerated exponentially (powers of two) per sliced dim
// and intersected with the shared-memory / register bounds, which keeps the
// search space small enough to exhaustively measure (Table 4).
#ifndef SPACEFUSION_SRC_SCHEDULE_SEARCH_SPACE_H_
#define SPACEFUSION_SRC_SCHEDULE_SEARCH_SPACE_H_

#include <cstdint>
#include <vector>

#include "src/schedule/memory_planner.h"
#include "src/schedule/schedule_ir.h"

namespace spacefusion {

// Enumerates resource-feasible block-size configurations for the schedule,
// tiles of at most 256 along any dim and at most 256 configs. `min_block`
// is the smallest tile extent for non-free dims (tile-graph compilers align
// to hardware MMA tiles and cannot shrink below 16).
// `include_temporal` additionally sweeps the temporal step when the
// schedule has a temporal dim. The schedule's block sizes are left at the
// last probed config; callers re-apply the chosen config.
//
// When `footprints` is non-null a ConfigFootprint is appended for every
// returned config (same order), captured while the config was applied — the
// input to the tuner's screening stage.
std::vector<ScheduleConfig> EnumerateConfigs(SmgSchedule* schedule, const ResourceConfig& rc,
                                             bool include_temporal, std::int64_t min_block = 1,
                                             std::vector<ConfigFootprint>* footprints = nullptr);

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_SCHEDULE_SEARCH_SPACE_H_
