#include "src/schedule/pipeline.h"

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/support/logging.h"
#include "src/support/string_util.h"

namespace spacefusion {

namespace {

// Compiles `graph` into a kernel sequence, partitioning as needed. On the
// first partition round that offers an alternative cut, `alt_cut` receives
// it (only the first is explored — deeper enumeration showed no gains in the
// paper's experiments).
Status CompileChain(const Graph& graph, const ResourceConfig& rc, const SlicingOptions& options,
                    ProgramCandidate* out, int* alt_cut, Graph* alt_graph) {
  ScopedSpan chain_span("pipeline.compile_chain");
  chain_span.Arg("graph", graph.name());
  Graph current = graph;
  for (int round = 0; round < 64; ++round) {
    StatusOr<SlicingResult> sliced = ResourceAwareSlicing(current, rc, options);
    if (sliced.ok()) {
      out->kernels.push_back(std::move(sliced).value());
      chain_span.Arg("partition_rounds", out->partition_rounds);
      return Status::Ok();
    }
    if (sliced.status().code() != StatusCode::kUnschedulable) {
      return sliced.status();
    }
    SF_ASSIGN_OR_RETURN(PartitionOutcome part, PartitionOnce(current, rc, options));
    ++out->partition_rounds;
    SF_COUNTER_ADD("pipeline.partition_rounds", 1);
    // Alternatives are only explored for the first cut; the rebuilt
    // candidate re-compiles the whole chain from that cut, so a later-round
    // alternative would discard the kernels already emitted before it.
    if (alt_cut != nullptr && *alt_cut < 0 && out->kernels.empty() &&
        !part.alternative_cuts.empty()) {
      *alt_cut = part.alternative_cuts.front();
      *alt_graph = current;
    }
    out->kernels.push_back(std::move(part.front));
    if (!part.has_rest) {
      chain_span.Arg("partition_rounds", out->partition_rounds);
      return Status::Ok();
    }
    current = std::move(part.rest);
  }
  return Internal(StrCat("partitioning of ", graph.name(), " did not converge"));
}

}  // namespace

StatusOr<PipelineResult> RunSlicingPipeline(const Graph& graph, const ResourceConfig& rc,
                                            const SlicingOptions& options) {
  PipelineResult result;

  ProgramCandidate primary;
  int alt_cut = -1;
  Graph alt_graph;
  SF_RETURN_IF_ERROR(CompileChain(graph, rc, options, &primary, &alt_cut, &alt_graph));
  result.candidates.push_back(std::move(primary));

  // Sec. 5.3 candidate exploration: re-run with the alternative cut applied
  // up-front (the non-A2O sub-SMG joins the latter graph).
  if (alt_cut > 0) {
    SF_TRACE_SPAN("pipeline.alternative_candidate");
    SF_COUNTER_ADD("pipeline.alternative_candidates", 1);
    auto [front, back] = SplitGraph(alt_graph, alt_cut);
    StatusOr<SlicingResult> front_sliced = ResourceAwareSlicing(front, rc, options);
    ProgramCandidate back_chain;
    Status back_status = CompileChain(back, rc, options, &back_chain, nullptr, nullptr);
    if (front_sliced.ok() && back_status.ok()) {
      ProgramCandidate alternative;
      alternative.kernels.push_back(std::move(front_sliced).value());
      for (SlicingResult& kernel : back_chain.kernels) {
        alternative.kernels.push_back(std::move(kernel));
      }
      alternative.partition_rounds = 1 + back_chain.partition_rounds;
      result.candidates.push_back(std::move(alternative));
    }
  }
  return result;
}

}  // namespace spacefusion
