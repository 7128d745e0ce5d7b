// Lowers an SmgSchedule to a simulator KernelSpec.
//
// This is the simulator's side of the paper's code-generation stage (which
// emits Triton): it translates slicing decisions and the memory plan into
// the grid geometry, resource usage, arithmetic work, and global-memory
// traffic that the GPU simulator executes. The host-executed side is
// src/codegen/cpp_codegen, which emits the same schedule as C++.
#ifndef SPACEFUSION_SRC_SCHEDULE_LOWERING_H_
#define SPACEFUSION_SRC_SCHEDULE_LOWERING_H_

#include "src/schedule/schedule_ir.h"
#include "src/sim/kernel.h"

namespace spacefusion {

// Lowers one scheduled SMG (one fused kernel). `addresses` assigns stable
// simulated addresses across kernels so the trace simulator sees
// producer-consumer reuse.
KernelSpec LowerSchedule(const SmgSchedule& schedule, AddressMap* addresses);

// Lowers a partitioned program: one kernel per SmgSchedule.
std::vector<KernelSpec> LowerProgram(const ScheduledProgram& program, AddressMap* addresses);

// Block-shape-dependent fraction of tensor-core peak a matmul tile reaches.
double MatmulTileEfficiency(std::int64_t tile_m, std::int64_t tile_n);

// ---- Staged-fidelity screening ---------------------------------------------
//
// The tuner's cheap first stage avoids full lowering per config: the
// config-independent work is hoisted into a ScreenContext once per kernel,
// the config-dependent part is the ConfigFootprint captured at enumeration
// time, and LowerForScreening combines them into a relaxed KernelSpec in
// O(1). CostModel::ScreenKernel of that spec is a lower bound on
// CostModel::EstimateKernel of the fully lowered spec for the same config
// (arithmetic work omits epilogue-update flops, read traffic uses the
// no-reuse DRAM lower bound; occupancy inputs are exact).

// Config-independent screening ingredients, computed once per kernel.
struct ScreenContext {
  std::int64_t flops_static = 0;    // executed once regardless of the config
  std::int64_t flops_temporal = 0;  // re-executed once per serial intra-block
  std::int64_t write_bytes = 0;     // output traffic (config-independent)
};

ScreenContext MakeScreenContext(const SmgSchedule& schedule);

// Summarizes the schedule's CURRENTLY APPLIED config (ApplyConfig +
// PlanMemory must have run) into a screening footprint.
ConfigFootprint ComputeConfigFootprint(const SmgSchedule& schedule);

// Builds the relaxed KernelSpec the screening stage scores.
KernelSpec LowerForScreening(const ScreenContext& ctx, const ConfigFootprint& fp);

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_SCHEDULE_LOWERING_H_
