// Static race/alias analysis over lowered schedules and memory plans.
//
// A compiled SmgSchedule is a claim that its grid blocks can run
// concurrently without racing on shared buffers. This analyzer checks that
// claim symbolically: for every buffer the memory plan leaves in a level
// shared between blocks (kGlobal / kGlobalStreamed), it derives each
// accessing op's per-block footprint from the spatial slicing — along a
// block-parallel dim an access is either confined to the block's tile
// (the accessor's iteration space and the buffer both extend along the dim)
// or covers the full extent — and proves every cross-block write pair
// disjoint or write-free. Footprints form a two-point lattice per axis
// (block-tile < full extent); overlap is decided per parallel dim, so the
// verdict is exact for the slicing-induced rectangular footprints the
// lowering produces, with no false negatives.
//
// Findings are reported through the existing diagnostics engine as stable
// SFV06xx codes (catalog in DESIGN.md "Static race analysis"):
//   SFV0601  write-write overlap between concurrent blocks
//   SFV0602  read-write overlap with no ordering edge between blocks
//   SFV0603  access outside the memory plan / fused space
//   SFV0604  aliased spill slots (simultaneously live tiles exceed the
//            recorded on-chip arena, so slot assignment must alias)
//
// Wired in two places: an Analyze pass at compile exit (under
// CompileOptions::verify == kFull) whose findings reach the CompileReport
// and `sf-compile`, and the
// CompilerEngine's persistent-cache admission gate (a racy program is
// never stored).
#ifndef SPACEFUSION_SRC_ANALYSIS_RACE_ANALYZER_H_
#define SPACEFUSION_SRC_ANALYSIS_RACE_ANALYZER_H_

#include "src/graph/graph.h"
#include "src/schedule/schedule_ir.h"
#include "src/verify/diagnostics.h"

namespace spacefusion {

// SFV06xx: race/alias findings of one schedule. Appends to `report` and
// never aborts, whatever the schedule's state — malformed index tables or
// slices are reported as SFV0603 and the footprint checks are skipped
// rather than computed from garbage.
void AnalyzeSchedule(const SmgSchedule& schedule, DiagnosticReport* report);

// Analyzes every kernel of a compiled program. Kernels execute in sequence
// (only blocks within one kernel are concurrent), so no cross-kernel pairs
// are formed. `source` provides the report context.
DiagnosticReport AnalyzeCompiledProgram(const ScheduledProgram& program, const Graph& source);

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_ANALYSIS_RACE_ANALYZER_H_
