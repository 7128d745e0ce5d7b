#include "src/core/model_runner.h"

#include "src/obs/trace.h"

namespace spacefusion {

std::optional<ExecutionReport> EstimateGraphWithBaseline(const Graph& graph,
                                                         const Baseline& baseline,
                                                         const GpuArch& arch) {
  ScopedSpan span("runner.estimate_baseline", "runner");
  span.Arg("graph", graph.name()).Arg("baseline", baseline.name());
  if (!baseline.Supports(graph, arch)) {
    return std::nullopt;
  }
  AddressMap addresses;
  std::vector<KernelSpec> kernels = baseline.Plan(graph, arch, &addresses);
  CostModel cost(arch);
  return cost.Estimate(kernels);
}

std::optional<ExecutionReport> EstimateModelWithBaseline(const ModelGraph& model,
                                                         const Baseline& baseline,
                                                         const GpuArch& arch) {
  ScopedSpan span("runner.estimate_model_baseline", "runner");
  span.Arg("model", model.config.name).Arg("baseline", baseline.name());
  ExecutionReport total;
  CostModel cost(arch);
  for (const Subprogram& sub : model.subprograms) {
    if (!baseline.Supports(sub.graph, arch)) {
      return std::nullopt;
    }
    AddressMap addresses;
    std::vector<KernelSpec> kernels = baseline.Plan(sub.graph, arch, &addresses);
    total += cost.Estimate(kernels).Scaled(sub.repeat);
  }
  return total;
}

ExecutionReport SimulateMemory(const std::vector<KernelSpec>& kernels, const GpuArch& arch) {
  ScopedSpan span("runner.simulate_memory", "runner");
  span.Arg("kernels", static_cast<std::int64_t>(kernels.size()));
  MemorySim sim(arch);
  return sim.Run(kernels);
}

}  // namespace spacefusion
