// Convenience entry points for the evaluation harness: estimating whole
// models and subprograms under a baseline on a given architecture, and the
// trace-driven memory simulation. SpaceFusion itself compiles through a
// CompilerEngine (src/core/engine.h).
#ifndef SPACEFUSION_SRC_CORE_MODEL_RUNNER_H_
#define SPACEFUSION_SRC_CORE_MODEL_RUNNER_H_

#include <optional>

#include "src/baselines/baseline.h"
#include "src/graph/models.h"
#include "src/sim/cost_model.h"
#include "src/sim/memory_sim.h"

namespace spacefusion {

// Executes a model under a baseline planner on the cost model. Returns
// nullopt when the baseline does not support any subprogram on this
// architecture (matching the paper's absent bars).
std::optional<ExecutionReport> EstimateModelWithBaseline(const ModelGraph& model,
                                                         const Baseline& baseline,
                                                         const GpuArch& arch);

// Plans one subprogram with a baseline and estimates it (nullopt if
// unsupported).
std::optional<ExecutionReport> EstimateGraphWithBaseline(const Graph& graph,
                                                         const Baseline& baseline,
                                                         const GpuArch& arch);

// Cache-level statistics (Fig. 15) for a kernel plan, via the trace-driven
// memory simulator.
ExecutionReport SimulateMemory(const std::vector<KernelSpec>& kernels, const GpuArch& arch);

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_CORE_MODEL_RUNNER_H_
