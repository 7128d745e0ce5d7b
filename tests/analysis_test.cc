// Negative coverage for the static race analyzer (src/analysis): each
// SFV06xx code gets at least one deliberately racy or malformed schedule
// that must surface its exact diagnostic, plus positive gates — every
// built-in model compiles to schedules the analyzer finds clean, and the
// analyzer's presence never changes what the compiler produces.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/analysis/race_analyzer.h"
#include "src/core/engine.h"
#include "src/graph/builder.h"
#include "src/graph/models.h"
#include "src/schedule/memory_planner.h"
#include "src/schedule/resource_aware.h"

namespace spacefusion {
namespace {

Graph SoftmaxGraph() {
  GraphBuilder b("softmax");
  TensorId x = b.Input("x", Shape({64, 128}));
  b.MarkOutput(b.Softmax(x));
  return b.Build();
}

// A sliced, configured, memory-planned softmax kernel — the analyzer's
// clean baseline that each negative test doctors one way.
SmgSchedule PlannedSoftmax() {
  StatusOr<SlicingResult> sliced = ResourceAwareSlicing(SoftmaxGraph(), ResourceConfig());
  EXPECT_TRUE(sliced.ok()) << sliced.status().ToString();
  SlicingResult sr = std::move(sliced).value();
  if (!sr.configs.empty()) {
    sr.schedule.ApplyConfig(sr.configs.front());
  }
  PlanMemory(&sr.schedule, ResourceConfig());
  return sr.schedule;
}

// First spatially sliced dim that actually yields >1 block (the concurrency
// the race checks quantify over). The doctored tests need one to exist.
DimId FirstParallelDim(const SmgSchedule& s) {
  for (const DimSlice& slice : s.spatial) {
    const FusedDim& dim = s.built.smg.dim(slice.dim);
    if ((dim.extent + slice.block - 1) / slice.block > 1) {
      return slice.dim;
    }
  }
  return kNoDim;
}

// An intermediate tensor with a producer, a consumer, and full extent along
// `dim` — the shape every doctoring below starts from.
TensorId TensorAlongDim(const SmgSchedule& s, DimId dim) {
  for (const TensorInfo& t : s.graph.tensors()) {
    if (t.kind != TensorKind::kIntermediate) {
      continue;
    }
    const Space& space = s.built.smg.space(s.built.tensor_space[static_cast<size_t>(t.id)]);
    if (space.HasDim(dim) && s.graph.producer(t.id) >= 0 && !s.graph.consumers(t.id).empty()) {
      return t.id;
    }
  }
  return kInvalidTensor;
}

void RemoveDim(std::vector<DimId>* dims, DimId dim) {
  for (size_t i = 0; i < dims->size(); ++i) {
    if ((*dims)[i] == dim) {
      dims->erase(dims->begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

// --- Positive baseline ----------------------------------------------------

TEST(RaceAnalyzerTest, CleanScheduleHasNoFindings) {
  SmgSchedule schedule = PlannedSoftmax();
  DiagnosticReport report;
  AnalyzeSchedule(schedule, &report);
  EXPECT_TRUE(report.empty()) << report.ToString();
}

// --- SFV0601: write-write overlap -----------------------------------------

TEST(RaceAnalyzerTest, WriteWriteRaceAcrossBlocks) {
  SmgSchedule schedule = PlannedSoftmax();
  DimId par = FirstParallelDim(schedule);
  ASSERT_NE(par, kNoDim);
  TensorId victim = TensorAlongDim(schedule, par);
  ASSERT_NE(victim, kInvalidTensor);

  // Shared between blocks, but the buffer no longer extends along the
  // parallel dim: every block's writer covers the full extent, so the
  // producing op races with itself across blocks.
  schedule.memory.tensor_level[static_cast<size_t>(victim)] = MemLevel::kGlobal;
  Space& space =
      schedule.built.smg.space(schedule.built.tensor_space[static_cast<size_t>(victim)]);
  RemoveDim(&space.dims, par);

  DiagnosticReport report;
  AnalyzeSchedule(schedule, &report);
  EXPECT_TRUE(report.HasCode("SFV0601")) << report.ToString();
}

// --- SFV0602: read-write overlap without ordering edge --------------------

TEST(RaceAnalyzerTest, ReadWriteRaceWithoutOrderingEdge) {
  SmgSchedule schedule = PlannedSoftmax();
  DimId par = FirstParallelDim(schedule);
  ASSERT_NE(par, kNoDim);
  TensorId victim = TensorAlongDim(schedule, par);
  ASSERT_NE(victim, kInvalidTensor);

  // The buffer and its writer stay tiled along the parallel dim (writes are
  // disjoint), but one reader's iteration space is stripped of the dim: its
  // read covers the full extent and overlaps the writes of every other
  // block, with no ordering edge between blocks.
  schedule.memory.tensor_level[static_cast<size_t>(victim)] = MemLevel::kGlobal;
  OpId reader = schedule.graph.consumers(victim).front();
  Space& iter =
      schedule.built.smg.space(schedule.built.op_space[static_cast<size_t>(reader)]);
  RemoveDim(&iter.dims, par);

  DiagnosticReport report;
  AnalyzeSchedule(schedule, &report);
  EXPECT_TRUE(report.HasCode("SFV0602")) << report.ToString();
  EXPECT_FALSE(report.HasCode("SFV0601")) << report.ToString();
}

// --- SFV0603: access outside the memory plan ------------------------------

TEST(RaceAnalyzerTest, TruncatedMemoryPlanIsOutOfPlan) {
  SmgSchedule schedule = PlannedSoftmax();
  ASSERT_FALSE(schedule.memory.tensor_level.empty());
  schedule.memory.tensor_level.pop_back();
  DiagnosticReport report;
  AnalyzeSchedule(schedule, &report);
  EXPECT_TRUE(report.HasCode("SFV0603")) << report.ToString();
}

TEST(RaceAnalyzerTest, DegenerateSliceWindowIsOutOfPlan) {
  SmgSchedule schedule = PlannedSoftmax();
  ASSERT_FALSE(schedule.spatial.empty());
  schedule.spatial.front().block = 0;  // not a window
  DiagnosticReport report;
  AnalyzeSchedule(schedule, &report);
  EXPECT_TRUE(report.HasCode("SFV0603")) << report.ToString();
}

TEST(RaceAnalyzerTest, SliceWiderThanExtentIsOutOfPlan) {
  SmgSchedule schedule = PlannedSoftmax();
  ASSERT_FALSE(schedule.spatial.empty());
  DimId d = schedule.spatial.front().dim;
  schedule.spatial.front().block = schedule.built.smg.dim(d).extent + 7;
  DiagnosticReport report;
  AnalyzeSchedule(schedule, &report);
  EXPECT_TRUE(report.HasCode("SFV0603")) << report.ToString();
}

TEST(RaceAnalyzerTest, WriteToReadOnlyBufferIsOutOfPlan) {
  SmgSchedule schedule = PlannedSoftmax();
  DimId par = FirstParallelDim(schedule);
  ASSERT_NE(par, kNoDim);
  TensorId victim = TensorAlongDim(schedule, par);
  ASSERT_NE(victim, kInvalidTensor);
  // An op now writes a kInput buffer: outside the writable plan region.
  schedule.graph.tensor(victim).kind = TensorKind::kInput;
  DiagnosticReport report;
  AnalyzeSchedule(schedule, &report);
  EXPECT_TRUE(report.HasCode("SFV0603")) << report.ToString();
}

TEST(RaceAnalyzerTest, InconsistentIndexTablesAreOutOfPlan) {
  SmgSchedule schedule = PlannedSoftmax();
  ASSERT_FALSE(schedule.built.tensor_space.empty());
  schedule.built.tensor_space.back() = 9999;  // space outside the SMG
  DiagnosticReport report;
  AnalyzeSchedule(schedule, &report);
  EXPECT_TRUE(report.HasCode("SFV0603")) << report.ToString();
}

// --- SFV0604: aliased spill slots -----------------------------------------

TEST(RaceAnalyzerTest, UndersizedArenaAliasesSpillSlots) {
  SmgSchedule schedule = PlannedSoftmax();
  // Shrink the recorded arenas below the liveness peak the plan implies:
  // slot assignment must then alias simultaneously live tiles.
  bool has_on_chip = false;
  for (MemLevel level : schedule.memory.tensor_level) {
    has_on_chip = has_on_chip || level == MemLevel::kShared || level == MemLevel::kRegister;
  }
  ASSERT_TRUE(has_on_chip);
  schedule.memory.smem_bytes = 0;
  schedule.memory.reg_bytes = 0;
  DiagnosticReport report;
  AnalyzeSchedule(schedule, &report);
  EXPECT_TRUE(report.HasCode("SFV0604")) << report.ToString();
}

TEST(RaceAnalyzerTest, RecordedArenaAtPeakIsClean) {
  // The planner's own arenas are exactly the liveness peak; the analyzer's
  // recomputation must agree, not flag legal plans.
  SmgSchedule schedule = PlannedSoftmax();
  DiagnosticReport report;
  AnalyzeSchedule(schedule, &report);
  EXPECT_FALSE(report.HasCode("SFV0604")) << report.ToString();
}

// --- Whole-program entry point --------------------------------------------

TEST(RaceAnalyzerTest, CompiledProgramContextNamesKernels) {
  Graph g = SoftmaxGraph();
  CompilerEngine compiler((CompileOptions()));
  StatusOr<CompiledSubprogram> compiled = compiler.Compile(g);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  DiagnosticReport report = AnalyzeCompiledProgram(compiled.value().program, g);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// --- Clean gate: every built-in model analyzes clean ----------------------

TEST(RaceAnalyzerTest, AllBuiltinModelsAnalyzeClean) {
  // Under verify=full the Analyze pass runs on every unique subprogram,
  // next to the exit verifier; every finding, warnings included, lands in
  // the report.
  CompileOptions options;
  options.verify = VerifyMode::kFull;
  for (ModelKind kind : AllModelKinds()) {
    ModelGraph model = BuildModel(GetModelConfig(kind, /*batch=*/1, /*seq=*/64));
    CompilerEngine compiler(options);
    StatusOr<CompiledModel> compiled = compiler.CompileModel(model);
    ASSERT_TRUE(compiled.ok()) << ModelKindName(kind) << ": " << compiled.status().ToString();
    EXPECT_GT(compiled->report.PassWallMs("Analyze"), 0.0) << ModelKindName(kind);
    EXPECT_TRUE(compiled->report.diagnostics.empty())
        << ModelKindName(kind) << ":\n" << compiled->report.VerifierJson();
  }
}

// --- Determinism: the analyzer never changes the compiled program ---------

TEST(RaceAnalyzerTest, AnalyzerOnOffCompilesBitIdentical) {
  Graph g = SoftmaxGraph();

  // verify=phase compiles without the Analyze pass, verify=full with it.
  CompileOptions off;
  off.verify = VerifyMode::kPhase;
  CompileOptions on;
  on.verify = VerifyMode::kFull;

  CompilerEngine compiler_off(off);
  CompilerEngine compiler_on(on);
  StatusOr<CompiledSubprogram> a = compiler_off.Compile(g);
  StatusOr<CompiledSubprogram> b = compiler_on.Compile(g);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  ASSERT_EQ(a.value().program.kernels.size(), b.value().program.kernels.size());
  for (size_t i = 0; i < a.value().program.kernels.size(); ++i) {
    EXPECT_EQ(a.value().program.kernels[i].ToString(), b.value().program.kernels[i].ToString());
  }
  EXPECT_EQ(a.value().estimate.time_us, b.value().estimate.time_us);
}

}  // namespace
}  // namespace spacefusion
