// Convenience entry points for the evaluation harness: estimating whole
// models under SpaceFusion or under a baseline, on a given architecture.
#ifndef SPACEFUSION_SRC_CORE_MODEL_RUNNER_H_
#define SPACEFUSION_SRC_CORE_MODEL_RUNNER_H_

#include <optional>

#include "src/baselines/baseline.h"
#include "src/core/compiler.h"
#include "src/core/engine.h"
#include "src/sim/memory_sim.h"

namespace spacefusion {

// Compiles a whole model through the engine API. The one entry point the
// bench targets (table5, fig14, fig16) and sf-compile share:
// with `engine == nullptr` a fresh CompilerEngine serves the request (cold
// compile); passing an engine reuses its cross-model program cache.
StatusOr<CompiledModel> CompileModelWithSpaceFusion(const ModelGraph& model,
                                                    const CompileOptions& options,
                                                    CompilerEngine* engine = nullptr);

// Compiles one subprogram through the engine API (same engine semantics).
StatusOr<CompiledSubprogram> CompileGraphWithSpaceFusion(const Graph& graph,
                                                         const CompileOptions& options,
                                                         CompilerEngine* engine = nullptr);

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

// Compiles + estimates one subprogram with SpaceFusion.
StatusOr<ExecutionReport> EstimateGraphWithSpaceFusion(const Graph& graph, const GpuArch& arch);

// Cache-level statistics (Fig. 15) for a kernel plan, via the trace-driven
// memory simulator.
ExecutionReport SimulateMemory(const std::vector<KernelSpec>& kernels, const GpuArch& arch);

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_CORE_MODEL_RUNNER_H_
