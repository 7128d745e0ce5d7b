// Phase-boundary IR verifiers: static legality checking for the three IR
// levels of the pipeline — operator Graph, Space-Mapping Graph, and the
// sliced Schedule with its memory plan.
//
// The paper states the invariants these checkers enforce but the pipeline
// previously only discovered violations dynamically (wrong numerics in the
// differential tests, or SF_CHECK aborts deep in lowering). Each checker is
// a pure function appending structured diagnostics (SFV#### codes, see
// diagnostics.h) to a DiagnosticReport:
//
//   GraphVerifier       acyclicity / use-before-def, shape and dtype
//                       consistency, dangling producers, arity;
//   SmgVerifier         mapping-kind vs. dimension-arity legality, space
//                       reachability from the graph boundary, FusedDim
//                       consistency with the tensor axes;
//   SliceVerifier       spatial/temporal slicers cover fused dims at most
//                       once (and at least one spatially), sliced dims are
//                       legally sliceable per the Table-3 classification,
//                       block sizes are positive, temporal aggregation
//                       plans cover every sliced All-to-One;
//   ScheduleVerifier    kernel order preserves all inter-operator
//                       dependencies across SMG blocks, intra-block serial
//                       order respects All-to-One reduction chains;
//   MemoryPlanVerifier  recorded footprints match an independent liveness
//                       recomputation (no overlapping/stale allocations)
//                       and stay within the ResourceConfig budgets.
//
// The compiler runs them at phase boundaries according to
// CompileOptions::verify (see VerifyMode below).
#ifndef SPACEFUSION_SRC_VERIFY_VERIFIER_H_
#define SPACEFUSION_SRC_VERIFY_VERIFIER_H_

#include <string>

#include "src/graph/graph.h"
#include "src/schedule/memory_planner.h"
#include "src/schedule/schedule_ir.h"
#include "src/smg/smg.h"
#include "src/smg/smg_builder.h"
#include "src/support/status.h"
#include "src/verify/diagnostics.h"

namespace spacefusion {

// How much static verification the compiler performs.
//   kOff    no checks;
//   kPhase  inputs verified at compile entry, the chosen program (SMG,
//           slicing, memory plan, block order) verified at compile exit;
//   kFull   kPhase plus every candidate program and every enumerated
//           schedule configuration.
enum class VerifyMode { kOff, kPhase, kFull };

const char* VerifyModeName(VerifyMode mode);

// Parses "off" / "phase" / "full" (case-sensitive).
StatusOr<VerifyMode> ParseVerifyMode(const std::string& text);

// --- Checkers ------------------------------------------------------------
// Each appends to `report` and never aborts; callers inspect report->ok().

// SFV01xx: operator-graph structure.
void VerifyGraph(const Graph& graph, DiagnosticReport* report);

// SFV02xx: SMG structural legality (standalone Smg, no operator graph).
void VerifySmg(const Smg& smg, DiagnosticReport* report);

// SFV02xx: consistency of an SMG build result against its source graph
// (index tables, FusedDim extents vs. tensor axes). Runs VerifySmg first.
void VerifySmgBuild(const Graph& graph, const SmgBuildResult& built, DiagnosticReport* report);

// SFV03xx: slicing decisions of one schedule.
void VerifySlicing(const SmgSchedule& schedule, DiagnosticReport* report);

// SFV04xx: the kernel sequence computes `source` with dependencies intact.
void VerifySchedule(const ScheduledProgram& program, const Graph& source,
                    DiagnosticReport* report);

// SFV05xx: memory plan of one schedule under the resource budgets.
void VerifyMemoryPlan(const SmgSchedule& schedule, const ResourceConfig& rc,
                      DiagnosticReport* report);

// Phase-boundary convenience: verifies every kernel of a compiled program
// (SMG build, slicing, memory plan) plus the inter-kernel dependency order
// against the source subprogram. This is the compile-exit check of kPhase
// mode and the per-candidate check of kFull mode.
DiagnosticReport VerifyCompiledProgram(const ScheduledProgram& program, const Graph& source,
                                       const ResourceConfig& rc);

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_VERIFY_VERIFIER_H_
