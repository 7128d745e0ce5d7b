#include "src/verify/verifier.h"

#include <algorithm>
#include <set>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/slicing/dim_analysis.h"
#include "src/support/string_util.h"

namespace spacefusion {

namespace {

constexpr const char* kGraphPhase = "graph";
constexpr const char* kSmgPhase = "smg";
constexpr const char* kSlicePhase = "slice";
constexpr const char* kSchedulePhase = "schedule";
constexpr const char* kMemoryPhase = "memory";

bool IsBoundaryKind(TensorKind kind) {
  return kind == TensorKind::kInput || kind == TensorKind::kWeight ||
         kind == TensorKind::kConstant;
}

std::string MappingSubject(const Smg& smg, const Mapping& m) {
  auto space_name = [&smg](SpaceId s) -> std::string {
    if (s < 0 || s >= static_cast<SpaceId>(smg.spaces().size())) {
      return StrCat("space#", s);
    }
    return smg.space(s).name;
  };
  return StrCat("mapping#", m.id, "(", space_name(m.src), " -", MappingKindName(m.kind), "-> ",
                space_name(m.dst), ")");
}

bool HasDimSorted(const std::vector<DimId>& dims, DimId d) {
  return std::binary_search(dims.begin(), dims.end(), d);
}

// True when every dim of `sub` also appears in `super` (both sorted).
bool DimsSubset(const std::vector<DimId>& sub, const std::vector<DimId>& super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

}  // namespace

const char* VerifyModeName(VerifyMode mode) {
  switch (mode) {
    case VerifyMode::kOff:
      return "off";
    case VerifyMode::kPhase:
      return "phase";
    case VerifyMode::kFull:
      return "full";
  }
  return "?";
}

StatusOr<VerifyMode> ParseVerifyMode(const std::string& text) {
  if (text == "off") {
    return VerifyMode::kOff;
  }
  if (text == "phase") {
    return VerifyMode::kPhase;
  }
  if (text == "full") {
    return VerifyMode::kFull;
  }
  return InvalidArgument(
      StrCat("unknown verify mode \"", text, "\" (expected off, phase, or full)"));
}

// --- GraphVerifier (SFV01xx) ---------------------------------------------

void VerifyGraph(const Graph& graph, DiagnosticReport* report) {
  SF_TRACE_SPAN("verify.graph", "verify");
  SF_COUNTER_ADD("verify.graph_checks", 1);
  const TensorId num_tensors = static_cast<TensorId>(graph.tensors().size());

  // Producers recomputed from the op list: Graph::producer() is a derived
  // table that silently keeps only the last writer.
  std::vector<int> producers(static_cast<size_t>(num_tensors), 0);

  for (const Op& op : graph.ops()) {
    size_t want_arity =
        (op.kind == OpKind::kUnary || op.kind == OpKind::kReduce) ? 1u : 2u;
    if (op.inputs.size() != want_arity) {
      report->AddError("SFV0107", kGraphPhase, op.name,
                       StrCat(OpKindName(op.kind), " expects ", want_arity, " input(s), has ",
                              op.inputs.size()));
    }

    bool inputs_ok = op.inputs.size() == want_arity;
    std::vector<Shape> in_shapes;
    for (TensorId in : op.inputs) {
      if (in < 0 || in >= num_tensors) {
        report->AddError("SFV0101", kGraphPhase, op.name,
                         StrCat("references invalid tensor id ", in));
        inputs_ok = false;
        continue;
      }
      const TensorInfo& t = graph.tensor(in);
      if (!IsBoundaryKind(t.kind)) {
        OpId prod = graph.producer(in);
        if (prod >= op.id) {
          report->AddError("SFV0102", kGraphPhase, op.name,
                           StrCat("consumes ", t.name, " before it is produced (op order is ",
                                  "cyclic or non-topological)"));
        }
      }
      in_shapes.push_back(t.shape);
    }

    if (op.output < 0 || op.output >= num_tensors) {
      report->AddError("SFV0101", kGraphPhase, op.name,
                       StrCat("produces invalid tensor id ", op.output));
      continue;
    }
    ++producers[static_cast<size_t>(op.output)];
    const TensorInfo& out = graph.tensor(op.output);

    if (inputs_ok) {
      StatusOr<Shape> expect = TryInferOpShape(op.kind, op.attrs, in_shapes);
      if (!expect.ok()) {
        report->AddError("SFV0103", kGraphPhase, op.name, expect.status().message());
      } else if (expect.value() != out.shape) {
        report->AddError("SFV0103", kGraphPhase, op.name,
                         StrCat("output shape ", out.shape.ToString(), " != inferred ",
                                expect.value().ToString()));
      }
      // Dtype consistency: the output follows the first non-constant
      // operand (FP32 scalar constants never promote the chain).
      for (TensorId in : op.inputs) {
        const TensorInfo& t = graph.tensor(in);
        if (t.kind == TensorKind::kConstant) {
          continue;
        }
        if (t.dtype != out.dtype) {
          report->AddWarning("SFV0108", kGraphPhase, op.name,
                             StrCat("output dtype differs from operand ", t.name,
                                    " dtype (implicit conversion)"));
        }
        break;
      }
    }
  }

  std::set<std::string> names;
  for (const TensorInfo& t : graph.tensors()) {
    bool needs_producer = !IsBoundaryKind(t.kind);
    int n = producers[static_cast<size_t>(t.id)];
    if (needs_producer && n == 0) {
      report->AddError("SFV0104", kGraphPhase, t.name,
                       StrCat(TensorKindName(t.kind), " tensor has no producing op"));
    }
    if (!needs_producer && n > 0) {
      report->AddError("SFV0105", kGraphPhase, t.name,
                       StrCat("graph-boundary ", TensorKindName(t.kind),
                              " tensor is produced by an op"));
    }
    if (n > 1) {
      report->AddError("SFV0106", kGraphPhase, t.name,
                       StrCat("produced by ", n, " ops (must be exactly one)"));
    }
    for (std::int64_t d : t.shape.dims()) {
      if (d < 1) {
        report->AddError("SFV0110", kGraphPhase, t.name,
                         StrCat("non-positive dimension in shape ", t.shape.ToString()));
        break;
      }
    }
    if (!names.insert(t.name).second) {
      report->AddWarning("SFV0109", kGraphPhase, t.name,
                         "duplicate tensor name (diagnostics may be ambiguous)");
    }
  }
}

// --- SmgVerifier (SFV02xx) -----------------------------------------------

void VerifySmg(const Smg& smg, DiagnosticReport* report) {
  SF_TRACE_SPAN("verify.smg", "verify");
  SF_COUNTER_ADD("verify.smg_checks", 1);
  const int num_dims = smg.num_dims();
  const SpaceId num_spaces = static_cast<SpaceId>(smg.spaces().size());

  for (const FusedDim& d : smg.dims()) {
    if (d.extent < 1) {
      report->AddError("SFV0206", kSmgPhase, d.name,
                       StrCat("fused dim has non-positive extent ", d.extent));
    }
  }

  for (const Space& s : smg.spaces()) {
    DimId prev = kNoDim;
    for (DimId d : s.dims) {
      if (d < 0 || d >= num_dims) {
        report->AddError("SFV0204", kSmgPhase, s.name,
                         StrCat("space extends along invalid dim id ", d));
      } else if (prev != kNoDim && d <= prev) {
        report->AddError("SFV0204", kSmgPhase, s.name,
                         "space dim list is not sorted strictly ascending");
      }
      prev = d;
    }
  }

  for (const Mapping& m : smg.mappings()) {
    std::string subject = MappingSubject(smg, m);
    if (m.src < 0 || m.src >= num_spaces || m.dst < 0 || m.dst >= num_spaces) {
      report->AddError("SFV0202", kSmgPhase, subject, "mapping references an invalid space id");
      continue;
    }
    const Space& src = smg.space(m.src);
    const Space& dst = smg.space(m.dst);
    bool directional = m.kind != MappingKind::kOneToOne;
    if (directional && m.dim == kNoDim) {
      report->AddError("SFV0201", kSmgPhase, subject,
                       StrCat(MappingKindName(m.kind), " mapping carries no direction dim"));
      continue;
    }
    if (!directional && m.dim != kNoDim) {
      report->AddError("SFV0201", kSmgPhase, subject,
                       "One-to-One mapping carries a direction dim");
    }
    if (m.dim != kNoDim && (m.dim < 0 || m.dim >= num_dims)) {
      report->AddError("SFV0202", kSmgPhase, subject,
                       StrCat("mapping direction references invalid dim id ", m.dim));
      continue;
    }
    switch (m.kind) {
      case MappingKind::kOneToOne:
        if (src.dims != dst.dims) {
          report->AddError("SFV0201", kSmgPhase, subject,
                           "One-to-One mapping between spaces of different dimensionality");
        }
        break;
      case MappingKind::kOneToAll:
        // The source is reused along the direction dim: the destination must
        // extend along it, the source must not.
        if (HasDimSorted(src.dims, m.dim) || !HasDimSorted(dst.dims, m.dim)) {
          report->AddError("SFV0203", kSmgPhase, subject,
                           StrCat("One-to-All direction ", smg.dim(m.dim).name,
                                  " must extend the destination but not the source"));
        } else if (!DimsSubset(src.dims, dst.dims)) {
          report->AddError("SFV0203", kSmgPhase, subject,
                           "One-to-All source extends along dims its destination lacks");
        }
        break;
      case MappingKind::kAllToOne:
        // A whole extent collapses along the direction dim: the source must
        // extend along it, the destination must not.
        if (!HasDimSorted(src.dims, m.dim) || HasDimSorted(dst.dims, m.dim)) {
          report->AddError("SFV0203", kSmgPhase, subject,
                           StrCat("All-to-One direction ", smg.dim(m.dim).name,
                                  " must extend the source but not the destination"));
        } else if (!DimsSubset(dst.dims, src.dims)) {
          report->AddError("SFV0203", kSmgPhase, subject,
                           "All-to-One destination extends along dims its source lacks");
        }
        break;
    }
  }

  // Space reachability: every iteration space and every non-boundary data
  // space must be reachable from the graph boundary (inputs / weights /
  // constants) through directed mappings — an unreachable space computes
  // nothing observable and signals a broken SMG construction.
  std::vector<bool> reached(static_cast<size_t>(num_spaces), false);
  std::vector<SpaceId> frontier;
  for (const Space& s : smg.spaces()) {
    if (s.IsGraphBoundaryInput()) {
      reached[static_cast<size_t>(s.id)] = true;
      frontier.push_back(s.id);
    }
  }
  while (!frontier.empty()) {
    SpaceId cur = frontier.back();
    frontier.pop_back();
    for (MappingId mid : smg.outgoing(cur)) {
      SpaceId next = smg.mapping(mid).dst;
      if (next >= 0 && next < num_spaces && !reached[static_cast<size_t>(next)]) {
        reached[static_cast<size_t>(next)] = true;
        frontier.push_back(next);
      }
    }
  }
  for (const Space& s : smg.spaces()) {
    if (!s.IsGraphBoundaryInput() && !reached[static_cast<size_t>(s.id)]) {
      report->AddError("SFV0205", kSmgPhase, s.name,
                       "space is unreachable from every graph-boundary input space");
    }
  }
}

void VerifySmgBuild(const Graph& graph, const SmgBuildResult& built, DiagnosticReport* report) {
  VerifySmg(built.smg, report);
  const Smg& smg = built.smg;
  const size_t num_tensors = graph.tensors().size();

  if (built.tensor_space.size() != num_tensors || built.op_space.size() != graph.ops().size() ||
      built.tensor_axis_dims.size() != num_tensors) {
    report->AddError("SFV0207", kSmgPhase, smg.name(),
                     "SMG build tables are not parallel to the operator graph");
    return;
  }

  for (const TensorInfo& t : graph.tensors()) {
    SpaceId sid = built.tensor_space[static_cast<size_t>(t.id)];
    if (sid < 0 || sid >= static_cast<SpaceId>(smg.spaces().size()) ||
        smg.space(sid).kind != SpaceKind::kData ||
        smg.space(sid).tensor != t.id) {
      report->AddError("SFV0207", kSmgPhase, t.name,
                       "tensor does not map to its own data space");
      continue;
    }
    const std::vector<DimId>& axes = built.tensor_axis_dims[static_cast<size_t>(t.id)];
    if (static_cast<int>(axes.size()) != t.shape.rank()) {
      report->AddError("SFV0207", kSmgPhase, t.name,
                       "tensor axis-dim table does not match the tensor rank");
      continue;
    }
    for (int axis = 0; axis < t.shape.rank(); ++axis) {
      std::int64_t extent = t.shape.dim(axis);
      DimId d = axes[static_cast<size_t>(axis)];
      if (extent > 1) {
        if (d == kNoDim || d < 0 || d >= smg.num_dims()) {
          report->AddError("SFV0206", kSmgPhase, t.name,
                           StrCat("axis ", axis, " (extent ", extent,
                                  ") is not aligned to any fused dim"));
        } else if (smg.dim(d).extent != extent) {
          report->AddError("SFV0206", kSmgPhase, t.name,
                           StrCat("axis ", axis, " extent ", extent, " != fused dim ",
                                  smg.dim(d).name, " extent ", smg.dim(d).extent));
        }
      } else if (d != kNoDim) {
        report->AddError("SFV0206", kSmgPhase, t.name,
                         StrCat("extent-1 axis ", axis, " is aligned to fused dim ", d));
      }
    }
  }

  for (const Op& op : graph.ops()) {
    SpaceId sid = built.op_space[static_cast<size_t>(op.id)];
    if (sid < 0 || sid >= static_cast<SpaceId>(smg.spaces().size()) ||
        smg.space(sid).kind != SpaceKind::kIteration || smg.space(sid).op != op.id) {
      report->AddError("SFV0207", kSmgPhase, op.name,
                       "op does not map to its own iteration space");
    }
  }
}

// --- SliceVerifier (SFV03xx) ---------------------------------------------

void VerifySlicing(const SmgSchedule& schedule, DiagnosticReport* report) {
  SF_TRACE_SPAN("verify.slicing", "verify");
  SF_COUNTER_ADD("verify.slice_checks", 1);
  const Smg& smg = schedule.built.smg;
  const int num_dims = smg.num_dims();

  if (schedule.spatial.empty()) {
    report->AddError("SFV0303", kSlicePhase, smg.name(),
                     "no fused dim is spatially sliced: the schedule has no parallelism "
                     "(every SMG block decomposition needs at least one grid dim)");
  }

  std::set<DimId> sliced;
  for (const DimSlice& s : schedule.spatial) {
    if (s.dim < 0 || s.dim >= num_dims) {
      report->AddError("SFV0302", kSlicePhase, StrCat("dim#", s.dim),
                       "spatial slicer references an invalid fused dim");
      continue;
    }
    const std::string& dim_name = smg.dim(s.dim).name;
    if (!sliced.insert(s.dim).second) {
      report->AddError("SFV0301", kSlicePhase, dim_name,
                       "fused dim is spatially sliced more than once");
    }
    if (s.block < 1) {
      report->AddError("SFV0304", kSlicePhase, dim_name,
                       StrCat("non-positive spatial block size ", s.block));
    }
    DimAnalysis analysis = AnalyzeDim(smg, s.dim);
    if (!analysis.SpatialSliceable()) {
      report->AddError("SFV0305", kSlicePhase, dim_name,
                       StrCat("spatially sliced dim is classified ", DimClassName(analysis.cls),
                              ": slicing it cuts a directional mapping and creates "
                              "inter-block flow dependencies"));
    }
  }

  if (schedule.has_temporal) {
    if (schedule.temporal.dim < 0 || schedule.temporal.dim >= num_dims) {
      report->AddError("SFV0302", kSlicePhase, StrCat("dim#", schedule.temporal.dim),
                       "temporal slicer references an invalid fused dim");
      return;
    }
    const std::string& dim_name = smg.dim(schedule.temporal.dim).name;
    if (sliced.count(schedule.temporal.dim) > 0) {
      report->AddError("SFV0301", kSlicePhase, dim_name,
                       "fused dim is covered by both the spatial and the temporal slicer");
    }
    if (schedule.temporal.block < 1) {
      report->AddError("SFV0304", kSlicePhase, dim_name,
                       StrCat("non-positive temporal step ", schedule.temporal.block));
    }
    if (schedule.plan.dim != schedule.temporal.dim) {
      report->AddError("SFV0306", kSlicePhase, dim_name,
                       "temporal aggregation plan was derived for a different dim");
    }
    // When the dim is actually serialized (more than one intra-block),
    // every All-to-One collapsing along it must have an aggregation rule —
    // a missing rule silently drops partial reduction results.
    if (schedule.NumIntraBlocks() > 1) {
      for (MappingId mid : smg.AllToOnesAlongDim(schedule.temporal.dim)) {
        OpId owner = smg.mapping(mid).op;
        bool covered = false;
        for (const ReductionAggregation& agg : schedule.plan.aggregations) {
          covered = covered || agg.op == owner;
        }
        if (!covered) {
          report->AddError("SFV0306", kSlicePhase, dim_name,
                           StrCat("All-to-One of op ",
                                  owner >= 0 && owner < static_cast<OpId>(
                                                            schedule.graph.ops().size())
                                      ? schedule.graph.op(owner).name
                                      : StrCat("#", owner),
                                  " along the temporal dim has no aggregation rule"));
        }
      }
    }
  }
}

// --- ScheduleVerifier (SFV04xx) ------------------------------------------

void VerifySchedule(const ScheduledProgram& program, const Graph& source,
                    DiagnosticReport* report) {
  SF_TRACE_SPAN("verify.schedule", "verify");
  SF_COUNTER_ADD("verify.schedule_checks", 1);

  // Kernel graphs are rebuilt subsets of the source graph; tensor *names*
  // survive every split (components, partition cuts), so dependency
  // preservation is checked by name: a kernel may only consume what the
  // source graph provides or an *earlier* kernel has produced.
  std::set<std::string> available;
  for (const TensorInfo& t : source.tensors()) {
    if (IsBoundaryKind(t.kind)) {
      available.insert(t.name);
    }
  }

  for (size_t k = 0; k < program.kernels.size(); ++k) {
    const SmgSchedule& kernel = program.kernels[k];
    const Graph& g = kernel.graph;
    for (const TensorInfo& t : g.tensors()) {
      if (IsBoundaryKind(t.kind) && available.count(t.name) == 0) {
        report->AddError("SFV0401", kSchedulePhase, t.name,
                         StrCat("kernel #", k, " (", g.name(), ") consumes a tensor no earlier "
                                "SMG block produced: block order violates dependencies"));
      }
    }
    for (const TensorInfo& t : g.tensors()) {
      if (t.kind == TensorKind::kOutput) {
        available.insert(t.name);
      }
    }

    // Intra-block serial order: aggregation rules execute in the kernel's
    // serial op order, so a dependent All-to-One chain (softmax: max before
    // sum) must keep its rules sorted by owning op.
    OpId prev = -1;
    for (const ReductionAggregation& agg : kernel.plan.aggregations) {
      if (agg.op < 0 || agg.op >= static_cast<OpId>(g.ops().size())) {
        report->AddError("SFV0403", kSchedulePhase, StrCat("op#", agg.op),
                         StrCat("kernel #", k, " aggregation rule references an op outside "
                                "the kernel graph"));
      } else if (agg.op <= prev) {
        report->AddError("SFV0403", kSchedulePhase, g.op(agg.op).name,
                         StrCat("kernel #", k, " intra-block aggregation order violates the "
                                "All-to-One dependency chain"));
      }
      prev = std::max(prev, agg.op);
    }
  }

  for (const TensorInfo& t : source.tensors()) {
    if (t.kind == TensorKind::kOutput && available.count(t.name) == 0) {
      report->AddError("SFV0402", kSchedulePhase, t.name,
                       "subprogram output is produced by no SMG block");
    }
  }
}

// --- MemoryPlanVerifier (SFV05xx) ----------------------------------------

void VerifyMemoryPlan(const SmgSchedule& schedule, const ResourceConfig& rc,
                      DiagnosticReport* report) {
  SF_TRACE_SPAN("verify.memory", "verify");
  SF_COUNTER_ADD("verify.memory_checks", 1);
  const Graph& graph = schedule.graph;

  if (schedule.memory.tensor_level.size() != graph.tensors().size()) {
    report->AddError("SFV0503", kMemoryPhase, graph.name(),
                     StrCat("memory plan covers ", schedule.memory.tensor_level.size(),
                            " tensors, graph has ", graph.tensors().size()));
    return;
  }

  // Independent recomputation: rerun the liveness pass on a copy and demand
  // identical placements and footprints. A recorded footprint below the
  // recomputed peak means live ranges of distinct tiles overlap inside the
  // claimed arena; any divergence means the plan is stale for the block
  // sizes actually scheduled.
  SmgSchedule probe = schedule;
  PlanMemory(&probe, rc);
  for (const TensorInfo& t : graph.tensors()) {
    MemLevel recorded = schedule.memory.tensor_level[static_cast<size_t>(t.id)];
    MemLevel recomputed = probe.memory.tensor_level[static_cast<size_t>(t.id)];
    if (recorded != recomputed) {
      report->AddError("SFV0502", kMemoryPhase, t.name,
                       StrCat("planned level ", MemLevelName(recorded),
                              " != recomputed level ", MemLevelName(recomputed)));
    }
  }
  if (schedule.memory.smem_bytes != probe.memory.smem_bytes) {
    report->AddError("SFV0502", kMemoryPhase, graph.name(),
                     StrCat("recorded shared-memory footprint ", schedule.memory.smem_bytes,
                            "B != live-range requirement ", probe.memory.smem_bytes,
                            "B (stale or overlapping allocation)"));
  }
  if (schedule.memory.reg_bytes != probe.memory.reg_bytes) {
    report->AddError("SFV0502", kMemoryPhase, graph.name(),
                     StrCat("recorded register footprint ", schedule.memory.reg_bytes,
                            "B != live-range requirement ", probe.memory.reg_bytes, "B"));
  }

  // Budgets are checked against the recomputed (trustworthy) footprints.
  if (probe.memory.smem_bytes > rc.smem_per_block_max) {
    report->AddError("SFV0501", kMemoryPhase, graph.name(),
                     StrCat("per-block shared memory ", probe.memory.smem_bytes,
                            "B exceeds the ", rc.smem_per_block_max, "B budget"));
  }
  if (probe.memory.reg_bytes > rc.reg_per_block_max) {
    report->AddError("SFV0501", kMemoryPhase, graph.name(),
                     StrCat("per-block register bytes ", probe.memory.reg_bytes, "B exceed the ",
                            rc.reg_per_block_max, "B budget"));
  }
}

// --- Phase-boundary driver -----------------------------------------------

DiagnosticReport VerifyCompiledProgram(const ScheduledProgram& program, const Graph& source,
                                       const ResourceConfig& rc) {
  SF_TRACE_SPAN("verify.program", "verify");
  SF_COUNTER_ADD("verify.programs_checked", 1);
  DiagnosticReport report;
  for (const SmgSchedule& kernel : program.kernels) {
    report.SetContext(kernel.graph.name());
    VerifyGraph(kernel.graph, &report);
    VerifySmgBuild(kernel.graph, kernel.built, &report);
    VerifySlicing(kernel, &report);
    VerifyMemoryPlan(kernel, rc, &report);
  }
  report.SetContext(source.name());
  VerifySchedule(program, source, &report);
  if (!report.empty()) {
    SF_COUNTER_ADD("verify.diagnostics", static_cast<std::int64_t>(report.diagnostics().size()));
  }
  if (!report.ok()) {
    SF_COUNTER_ADD("verify.errors", report.error_count());
  }
  return report;
}

}  // namespace spacefusion
