#include "src/analysis/race_analyzer.h"

#include <algorithm>
#include <vector>

#include "src/schedule/memory_planner.h"
#include "src/smg/smg.h"
#include "src/support/string_util.h"

namespace spacefusion {

namespace {

constexpr const char* kPhaseRace = "race";

// Every footprint computation below indexes through these tables, so an
// inconsistent schedule is reported once as SFV0603 and analysis stops for
// the kernel instead of reading out of bounds. Returns true when sound.
bool CheckIndexTables(const SmgSchedule& s, DiagnosticReport* report) {
  const Graph& g = s.graph;
  const Smg& smg = s.built.smg;
  const size_t num_spaces = smg.spaces().size();
  if (s.built.tensor_space.size() != g.tensors().size() ||
      s.built.op_space.size() != g.ops().size()) {
    report->AddError("SFV0603", kPhaseRace, g.name(),
                     StrCat("SMG index tables cover ", s.built.tensor_space.size(), " tensor(s) / ",
                            s.built.op_space.size(), " op(s) but the graph has ",
                            g.tensors().size(), " / ", g.ops().size(),
                            ": footprints are underivable"));
    return false;
  }
  for (SpaceId sid : s.built.tensor_space) {
    if (sid < 0 || static_cast<size_t>(sid) >= num_spaces) {
      report->AddError("SFV0603", kPhaseRace, g.name(),
                       StrCat("tensor maps to space#", sid, " outside the SMG"));
      return false;
    }
  }
  for (SpaceId sid : s.built.op_space) {
    if (sid < 0 || static_cast<size_t>(sid) >= num_spaces) {
      report->AddError("SFV0603", kPhaseRace, g.name(),
                       StrCat("op maps to space#", sid, " outside the SMG"));
      return false;
    }
  }
  for (const Space& space : smg.spaces()) {
    for (DimId d : space.dims) {
      if (d < 0 || d >= smg.num_dims()) {
        report->AddError("SFV0603", kPhaseRace, space.name,
                         StrCat("space extends along dim#", d, " outside the fused space"));
        return false;
      }
    }
  }
  for (const Op& op : g.ops()) {
    bool bad = op.output < 0 || static_cast<size_t>(op.output) >= g.tensors().size();
    for (TensorId in : op.inputs) {
      bad = bad || in < 0 || static_cast<size_t>(in) >= g.tensors().size();
    }
    if (bad) {
      report->AddError("SFV0603", kPhaseRace, op.name,
                       "op references tensors outside the graph: footprints are underivable");
      return false;
    }
  }
  return true;
}

// Validates one sliced dim; a malformed slice claims a tile window outside
// the buffer region the plan allocated. Returns false on a finding.
bool CheckSlice(const SmgSchedule& s, const DimSlice& slice, const char* which,
                DiagnosticReport* report) {
  const Smg& smg = s.built.smg;
  if (slice.dim < 0 || slice.dim >= smg.num_dims()) {
    report->AddError("SFV0603", kPhaseRace, StrCat(which, " slice"),
                     StrCat("names dim#", slice.dim, " outside the fused space"));
    return false;
  }
  const FusedDim& dim = smg.dim(slice.dim);
  if (slice.block <= 0) {
    report->AddError("SFV0603", kPhaseRace, dim.name,
                     StrCat(which, " tile of ", slice.block, " element(s) is not a window"));
    return false;
  }
  if (slice.block > dim.extent) {
    report->AddError(
        "SFV0603", kPhaseRace, dim.name,
        StrCat(which, " tile [0,", slice.block, ") extends past the planned extent ", dim.extent));
    return false;
  }
  return true;
}

// Block-parallel dims: spatially sliced dims whose slicing yields more than
// one block. Only these create concurrency; a dim with one block (or the
// serial temporal dim) orders all accesses along it.
std::vector<DimId> BlockParallelDims(const SmgSchedule& s) {
  std::vector<DimId> multi;
  for (const DimSlice& slice : s.spatial) {
    const FusedDim& dim = s.built.smg.dim(slice.dim);
    std::int64_t blocks = (dim.extent + slice.block - 1) / slice.block;
    if (blocks > 1) {
      multi.push_back(slice.dim);
    }
  }
  return multi;
}

// Tile bytes of a tensor under the schedule's slicing (the planner's rule).
std::int64_t TileBytes(const SmgSchedule& s, TensorId tensor) {
  const Space& space = s.built.smg.space(s.built.tensor_space[static_cast<size_t>(tensor)]);
  std::int64_t elems = 1;
  for (DimId d : space.dims) {
    elems *= s.TileExtent(d);
  }
  return elems * space.elem_bytes;
}

bool IsReductionSink(const SmgSchedule& s, TensorId tensor) {
  const Smg& smg = s.built.smg;
  SpaceId sid = s.built.tensor_space[static_cast<size_t>(tensor)];
  for (MappingId mid : smg.incoming(sid)) {
    if (smg.mapping(mid).kind == MappingKind::kAllToOne) {
      return true;
    }
  }
  return false;
}

// SFV0601 / SFV0602: cross-block footprint intersection on shared buffers.
void CheckBlockRaces(const SmgSchedule& s, const std::vector<DimId>& parallel_dims,
                     DiagnosticReport* report) {
  const Graph& g = s.graph;
  const Smg& smg = s.built.smg;

  // Along parallel dim d, op `o`'s access of tensor `t` is confined to the
  // block's tile iff both the buffer and the accessor's iteration space
  // extend along d; otherwise the access covers the full extent.
  auto tiled_along = [&](const Space& tensor_space, OpId o, DimId d) {
    const Space& iter = smg.space(s.built.op_space[static_cast<size_t>(o)]);
    return tensor_space.HasDim(d) && iter.HasDim(d);
  };
  // Two accesses of the same buffer from two distinct blocks overlap unless
  // some parallel dim tiles them both (then blocks differing along it are
  // disjoint, and blocks agreeing along it are separated by another dim or
  // are the same block). Returns a witness dim when a racing pair exists.
  auto conflict_dim = [&](const Space& tensor_space, OpId a, OpId b) -> DimId {
    for (DimId d : parallel_dims) {
      if (!tiled_along(tensor_space, a, d) || !tiled_along(tensor_space, b, d)) {
        return d;
      }
    }
    return kNoDim;
  };

  for (const TensorInfo& t : g.tensors()) {
    MemLevel level = s.memory.tensor_level[static_cast<size_t>(t.id)];
    if (level != MemLevel::kGlobal && level != MemLevel::kGlobalStreamed) {
      continue;  // per-block private (registers / shared memory): no sharing
    }
    OpId writer = g.producer(t.id);
    if (writer < 0) {
      continue;  // read-only boundary buffer: reads never conflict
    }
    const Space& tensor_space = smg.space(s.built.tensor_space[static_cast<size_t>(t.id)]);

    // Write-write: the producing op runs in every block; its own footprints
    // must be pairwise disjoint across blocks.
    DimId ww = conflict_dim(tensor_space, writer, writer);
    if (ww != kNoDim) {
      report->AddError(
          "SFV0601", kPhaseRace, t.name,
          StrCat("op ", g.op(writer).name, " writes ", MemLevelName(level), " buffer ", t.name,
                 " from concurrent blocks with overlapping ranges along parallel dim ",
                 smg.dim(ww).name, " (write-write race)"));
    }

    // Read-write: every consumer in one block against the producer in
    // another. Blocks of one kernel are mutually unordered — there is no
    // ordering edge that could sequence the pair.
    for (OpId reader : g.consumers(t.id)) {
      DimId rw = conflict_dim(tensor_space, reader, writer);
      if (rw != kNoDim) {
        report->AddError(
            "SFV0602", kPhaseRace, t.name,
            StrCat("op ", g.op(reader).name, " reads ", MemLevelName(level), " buffer ", t.name,
                   " while op ", g.op(writer).name,
                   " writes it from a concurrent block, overlapping along parallel dim ",
                   smg.dim(rw).name, " with no ordering edge (read-write race)"));
        break;  // one finding per buffer
      }
    }
  }
}

// SFV0604: simultaneously live on-chip tiles vs. the recorded arena. The
// planner sizes the per-block shared/register arenas to the liveness peak;
// slot assignment packs live tiles into that arena. This recomputes the
// exact peak (sum of live tile bytes, mirroring the planner's liveness
// pass — deliberately not a first-fit simulation, whose fragmentation
// could exceed the peak on legal plans) from the *recorded* levels; if it
// exceeds the recorded arena, two live tiles must share slots.
void CheckSpillSlotAliasing(const SmgSchedule& s, DiagnosticReport* report) {
  const Graph& g = s.graph;
  constexpr std::int64_t kTransientRegisterBytes = 2048;  // planner's charge

  struct LiveTile {
    TensorId tensor;
    int start;
    int end;
    std::int64_t bytes;
    bool shared;  // kShared (vs. kRegister)
  };
  std::vector<LiveTile> tiles;
  const int num_ops = static_cast<int>(g.ops().size());
  for (const TensorInfo& t : g.tensors()) {
    MemLevel level = s.memory.tensor_level[static_cast<size_t>(t.id)];
    if ((level != MemLevel::kShared && level != MemLevel::kRegister) ||
        t.kind == TensorKind::kConstant) {
      continue;
    }
    std::int64_t elems =
        TileBytes(s, t.id) / std::max<std::int64_t>(1, DTypeSize(t.dtype));
    std::int64_t bytes = elems * OnChipElemBytes(level, DTypeSize(t.dtype));
    if (level == MemLevel::kRegister && !IsReductionSink(s, t.id)) {
      bytes = std::min(bytes, kTransientRegisterBytes);
    }
    const std::vector<OpId>& consumers = g.consumers(t.id);
    int start = 0;
    OpId prod = g.producer(t.id);
    if (prod >= 0) {
      start = prod;
    } else if (!consumers.empty()) {
      start = *std::min_element(consumers.begin(), consumers.end());
    }
    int end = num_ops;
    if (!consumers.empty() && t.kind != TensorKind::kOutput) {
      end = *std::max_element(consumers.begin(), consumers.end()) + 1;
    }
    tiles.push_back({t.id, start, end, bytes, level == MemLevel::kShared});
  }

  auto check_level = [&](bool shared, std::int64_t arena, const char* level_name) {
    std::vector<std::int64_t> delta(static_cast<size_t>(num_ops) + 2, 0);
    for (const LiveTile& tile : tiles) {
      if (tile.shared != shared) {
        continue;
      }
      delta[static_cast<size_t>(tile.start)] += tile.bytes;
      delta[static_cast<size_t>(tile.end)] -= tile.bytes;
    }
    std::int64_t live = 0;
    for (int i = 0; i < static_cast<int>(delta.size()); ++i) {
      live += delta[static_cast<size_t>(i)];
      if (live <= arena) {
        continue;
      }
      // First op index where the live set no longer fits: name two of the
      // tiles that must alias.
      std::vector<std::string> names;
      for (const LiveTile& tile : tiles) {
        if (tile.shared == shared && tile.start <= i && i < tile.end) {
          names.push_back(g.tensor(tile.tensor).name);
          if (names.size() == 2) {
            break;
          }
        }
      }
      report->AddError(
          "SFV0604", kPhaseRace, names.empty() ? std::string(level_name) : names.front(),
          StrCat(live, " byte(s) of ", level_name, " tiles are simultaneously live (",
                 StrJoin(names, ", "), ") but the recorded arena is ", arena,
                 " byte(s): spill-slot assignment must alias live tiles"));
      return;  // one finding per level
    }
  };
  check_level(/*shared=*/true, s.memory.smem_bytes, "shared-memory");
  check_level(/*shared=*/false, s.memory.reg_bytes, "register");
}

}  // namespace

void AnalyzeSchedule(const SmgSchedule& schedule, DiagnosticReport* report) {
  const Graph& g = schedule.graph;
  if (!CheckIndexTables(schedule, report)) {
    return;
  }
  bool slices_sound = true;
  for (const DimSlice& slice : schedule.spatial) {
    slices_sound = CheckSlice(schedule, slice, "spatial", report) && slices_sound;
  }
  if (schedule.has_temporal) {
    slices_sound = CheckSlice(schedule, schedule.temporal, "temporal", report) && slices_sound;
  }
  // Writes into read-only boundary buffers sit outside the writable plan
  // region whatever the slicing; report them even when slices are broken.
  for (const Op& op : g.ops()) {
    TensorKind kind = g.tensor(op.output).kind;
    if (kind == TensorKind::kInput || kind == TensorKind::kWeight ||
        kind == TensorKind::kConstant) {
      report->AddError("SFV0603", kPhaseRace, g.tensor(op.output).name,
                       StrCat("op ", op.name, " writes read-only ", TensorKindName(kind),
                              " buffer outside the writable plan region"));
    }
  }
  if (schedule.memory.tensor_level.size() != g.tensors().size()) {
    report->AddError("SFV0603", kPhaseRace, g.name(),
                     StrCat("memory plan places ", schedule.memory.tensor_level.size(), " of ",
                            g.tensors().size(), " tensor(s): accesses fall outside the plan"));
    return;
  }
  if (!slices_sound) {
    return;  // tile windows unreliable: footprint checks would be garbage
  }
  CheckBlockRaces(schedule, BlockParallelDims(schedule), report);
  CheckSpillSlotAliasing(schedule, report);
}

DiagnosticReport AnalyzeCompiledProgram(const ScheduledProgram& program, const Graph& source) {
  DiagnosticReport report;
  for (const SmgSchedule& kernel : program.kernels) {
    report.SetContext(kernel.graph.name());
    AnalyzeSchedule(kernel, &report);
  }
  report.SetContext(source.name());
  return report;
}

}  // namespace spacefusion
