// Negative coverage for the phase-boundary verifiers: each checker gets at
// least one deliberately broken IR and must report its exact SFV code —
// plus positive runs proving clean IR produces zero diagnostics.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "src/core/engine.h"
#include "src/graph/builder.h"
#include "src/schedule/memory_planner.h"
#include "src/schedule/resource_aware.h"
#include "src/slicing/dim_analysis.h"
#include "src/smg/smg_builder.h"
#include "src/verify/verifier.h"

namespace spacefusion {
namespace {

Graph SoftmaxGraph() {
  GraphBuilder b("softmax");
  TensorId x = b.Input("x", Shape({64, 128}));
  b.MarkOutput(b.Softmax(x));
  return b.Build();
}

// A raw graph skeleton: tensors first, ops appended by the caller.
struct RawGraph {
  Graph g{"raw"};
  TensorId AddTensor(const char* name, Shape shape, TensorKind kind) {
    TensorInfo info;
    info.name = name;
    info.shape = std::move(shape);
    info.kind = kind;
    return g.AddTensor(std::move(info));
  }
  void AddUnary(TensorId in, TensorId out) {
    Op op;
    op.kind = OpKind::kUnary;
    op.inputs = {in};
    op.output = out;
    op.name = "op";
    g.AddOp(std::move(op));
  }
};

// --- Diagnostics engine ---------------------------------------------------

TEST(DiagnosticsTest, RenderingAndStatus) {
  DiagnosticReport report;
  report.SetContext("mha");
  report.AddError("SFV0101", "graph", "softmax_0", "bad tensor ref");
  report.AddWarning("SFV0108", "graph", "add_1", "dtype drift");

  EXPECT_EQ(report.error_count(), 1);
  EXPECT_EQ(report.warning_count(), 1);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasCode("SFV0101"));
  EXPECT_FALSE(report.HasCode("SFV0999"));

  std::string text = report.ToString();
  EXPECT_NE(text.find("SFV0101 [error] graph(mha): softmax_0: bad tensor ref"),
            std::string::npos);

  Status st = report.ToStatus();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("SFV0101"), std::string::npos);

  DiagnosticReport other;
  other.AddError("SFV0203", "smg", "m", "bad direction");
  report.Merge(std::move(other));
  EXPECT_EQ(report.error_count(), 2);
}

TEST(VerifyModeTest, ParsesTheThreeModeNames) {
  EXPECT_EQ(ParseVerifyMode("off").value(), VerifyMode::kOff);
  EXPECT_EQ(ParseVerifyMode("phase").value(), VerifyMode::kPhase);
  EXPECT_EQ(ParseVerifyMode("full").value(), VerifyMode::kFull);
  EXPECT_FALSE(ParseVerifyMode("FULL").ok());
}

// --- GraphVerifier --------------------------------------------------------

TEST(GraphVerifierTest, CleanGraphHasNoDiagnostics) {
  DiagnosticReport report;
  VerifyGraph(SoftmaxGraph(), &report);
  EXPECT_TRUE(report.empty()) << report.ToString();
}

TEST(GraphVerifierTest, UseBeforeDefIsACycle) {
  RawGraph raw;
  TensorId x = raw.AddTensor("x", Shape({8, 16}), TensorKind::kInput);
  TensorId a = raw.AddTensor("a", Shape({8, 16}), TensorKind::kOutput);
  TensorId b = raw.AddTensor("b", Shape({8, 16}), TensorKind::kIntermediate);
  raw.AddUnary(b, a);  // consumes b before op 1 produces it
  raw.AddUnary(x, b);
  DiagnosticReport report;
  VerifyGraph(raw.g, &report);
  EXPECT_TRUE(report.HasCode("SFV0102")) << report.ToString();
}

TEST(GraphVerifierTest, OutputShapeMismatch) {
  RawGraph raw;
  TensorId x = raw.AddTensor("x", Shape({8, 16}), TensorKind::kInput);
  TensorId y = raw.AddTensor("y", Shape({8, 8}), TensorKind::kOutput);
  raw.AddUnary(x, y);  // unary preserves shape; [8,8] != [8,16]
  DiagnosticReport report;
  VerifyGraph(raw.g, &report);
  EXPECT_TRUE(report.HasCode("SFV0103")) << report.ToString();
}

TEST(GraphVerifierTest, DanglingProducer) {
  RawGraph raw;
  raw.AddTensor("orphan", Shape({8}), TensorKind::kIntermediate);
  DiagnosticReport report;
  VerifyGraph(raw.g, &report);
  EXPECT_TRUE(report.HasCode("SFV0104")) << report.ToString();
}

TEST(GraphVerifierTest, ProducedBoundaryTensor) {
  RawGraph raw;
  TensorId x = raw.AddTensor("x", Shape({8, 16}), TensorKind::kInput);
  raw.AddUnary(x, x);  // an op writing a graph input
  DiagnosticReport report;
  VerifyGraph(raw.g, &report);
  EXPECT_TRUE(report.HasCode("SFV0105")) << report.ToString();
}

TEST(GraphVerifierTest, DoubleProduction) {
  RawGraph raw;
  TensorId x = raw.AddTensor("x", Shape({8, 16}), TensorKind::kInput);
  TensorId y = raw.AddTensor("y", Shape({8, 16}), TensorKind::kOutput);
  raw.AddUnary(x, y);
  raw.AddUnary(x, y);
  DiagnosticReport report;
  VerifyGraph(raw.g, &report);
  EXPECT_TRUE(report.HasCode("SFV0106")) << report.ToString();
}

TEST(GraphVerifierTest, WrongArity) {
  RawGraph raw;
  TensorId x = raw.AddTensor("x", Shape({8, 16}), TensorKind::kInput);
  TensorId y = raw.AddTensor("y", Shape({8, 16}), TensorKind::kOutput);
  Op op;
  op.kind = OpKind::kBinary;
  op.inputs = {x};  // binary with one operand
  op.output = y;
  op.name = "add";
  raw.g.AddOp(std::move(op));
  DiagnosticReport report;
  VerifyGraph(raw.g, &report);
  EXPECT_TRUE(report.HasCode("SFV0107")) << report.ToString();
}

// --- SmgVerifier ----------------------------------------------------------

struct MiniSmg {
  Smg smg{"mini"};
  DimId d0, d1;
  SpaceId input, output;
  MiniSmg() {
    d0 = smg.AddDim("d0", 8);
    d1 = smg.AddDim("d1", 16);
    Space in;
    in.name = "in";
    in.role = DataRole::kInput;
    in.dims = {d0};
    input = smg.AddSpace(std::move(in));
    Space out;
    out.name = "out";
    out.role = DataRole::kOutput;
    out.dims = {d0};
    output = smg.AddSpace(std::move(out));
  }
};

TEST(SmgVerifierTest, OneToOneCarryingDirectionDimIsArityMismatch) {
  MiniSmg m;
  Mapping map;
  map.src = m.input;
  map.dst = m.output;
  map.kind = MappingKind::kOneToOne;
  map.dim = m.d0;  // One-to-One must not carry a direction
  m.smg.AddMapping(map);
  DiagnosticReport report;
  VerifySmg(m.smg, &report);
  EXPECT_TRUE(report.HasCode("SFV0201")) << report.ToString();
}

TEST(SmgVerifierTest, InvalidDirectionDim) {
  MiniSmg m;
  Mapping map;
  map.src = m.input;
  map.dst = m.output;
  map.kind = MappingKind::kAllToOne;
  map.dim = 7;  // out of range
  m.smg.AddMapping(map);
  DiagnosticReport report;
  VerifySmg(m.smg, &report);
  EXPECT_TRUE(report.HasCode("SFV0202")) << report.ToString();
}

TEST(SmgVerifierTest, AllToOneDirectionMissingFromSource) {
  MiniSmg m;
  Mapping map;
  map.src = m.input;   // extends along d0 only
  map.dst = m.output;
  map.kind = MappingKind::kAllToOne;
  map.dim = m.d1;  // collapses a dim the source does not extend along
  m.smg.AddMapping(map);
  DiagnosticReport report;
  VerifySmg(m.smg, &report);
  EXPECT_TRUE(report.HasCode("SFV0203")) << report.ToString();
}

TEST(SmgVerifierTest, SpaceWithInvalidDim) {
  Smg smg("bad");
  smg.AddDim("d0", 8);
  Space s;
  s.name = "s";
  s.role = DataRole::kInput;
  s.dims = {3};  // only dim 0 exists
  smg.AddSpace(std::move(s));
  DiagnosticReport report;
  VerifySmg(smg, &report);
  EXPECT_TRUE(report.HasCode("SFV0204")) << report.ToString();
}

TEST(SmgVerifierTest, UnreachableSpace) {
  MiniSmg m;  // no mapping: the output space is unreachable from the input
  DiagnosticReport report;
  VerifySmg(m.smg, &report);
  EXPECT_TRUE(report.HasCode("SFV0205")) << report.ToString();
}

TEST(SmgVerifierTest, BuildResultExtentTamperDetected) {
  Graph g = SoftmaxGraph();
  StatusOr<SmgBuildResult> built = BuildSmg(g);
  ASSERT_TRUE(built.ok());
  {
    DiagnosticReport clean;
    VerifySmgBuild(g, built.value(), &clean);
    EXPECT_TRUE(clean.empty()) << clean.ToString();
  }
  // Detach an extent>1 tensor axis from its fused dim.
  built.value().tensor_axis_dims[0][0] = kNoDim;
  DiagnosticReport report;
  VerifySmgBuild(g, built.value(), &report);
  EXPECT_TRUE(report.HasCode("SFV0206")) << report.ToString();
}

TEST(SmgVerifierTest, BuildResultIndexTamperDetected) {
  Graph g = SoftmaxGraph();
  StatusOr<SmgBuildResult> built = BuildSmg(g);
  ASSERT_TRUE(built.ok());
  // Point a tensor at an iteration space.
  built.value().tensor_space[0] = built.value().op_space[0];
  DiagnosticReport report;
  VerifySmgBuild(g, built.value(), &report);
  EXPECT_TRUE(report.HasCode("SFV0207")) << report.ToString();
}

// --- SliceVerifier --------------------------------------------------------

SlicingResult SlicedSoftmax() {
  StatusOr<SlicingResult> sliced =
      ResourceAwareSlicing(SoftmaxGraph(), ResourceConfig());
  EXPECT_TRUE(sliced.ok()) << sliced.status().ToString();
  return std::move(sliced).value();
}

TEST(SliceVerifierTest, CleanSchedulePasses) {
  SlicingResult sr = SlicedSoftmax();
  DiagnosticReport report;
  VerifySlicing(sr.schedule, &report);
  EXPECT_TRUE(report.empty()) << report.ToString();
}

TEST(SliceVerifierTest, UncoveredFusedDims) {
  SlicingResult sr = SlicedSoftmax();
  sr.schedule.spatial.clear();  // no dim is spatially covered
  DiagnosticReport report;
  VerifySlicing(sr.schedule, &report);
  EXPECT_TRUE(report.HasCode("SFV0303")) << report.ToString();
}

TEST(SliceVerifierTest, DimSlicedTwice) {
  SlicingResult sr = SlicedSoftmax();
  ASSERT_FALSE(sr.schedule.spatial.empty());
  sr.schedule.spatial.push_back(sr.schedule.spatial.front());
  DiagnosticReport report;
  VerifySlicing(sr.schedule, &report);
  EXPECT_TRUE(report.HasCode("SFV0301")) << report.ToString();
}

TEST(SliceVerifierTest, InvalidDimReference) {
  SlicingResult sr = SlicedSoftmax();
  ASSERT_FALSE(sr.schedule.spatial.empty());
  sr.schedule.spatial.front().dim = 99;
  DiagnosticReport report;
  VerifySlicing(sr.schedule, &report);
  EXPECT_TRUE(report.HasCode("SFV0302")) << report.ToString();
}

TEST(SliceVerifierTest, NonPositiveBlock) {
  SlicingResult sr = SlicedSoftmax();
  ASSERT_FALSE(sr.schedule.spatial.empty());
  sr.schedule.spatial.front().block = 0;
  DiagnosticReport report;
  VerifySlicing(sr.schedule, &report);
  EXPECT_TRUE(report.HasCode("SFV0304")) << report.ToString();
}

TEST(SliceVerifierTest, SpatiallySlicingAReductionDim) {
  SlicingResult sr = SlicedSoftmax();
  const Smg& smg = sr.schedule.built.smg;
  // Softmax reduces along the column dim: spatially slicing it cuts the
  // All-to-One and is illegal per the Table-3 classification.
  DimId bad = kNoDim;
  for (DimId d = 0; d < smg.num_dims(); ++d) {
    if (!AnalyzeDim(smg, d).SpatialSliceable()) {
      bad = d;
      break;
    }
  }
  ASSERT_NE(bad, kNoDim);
  bool already = false;
  for (const DimSlice& s : sr.schedule.spatial) {
    already = already || s.dim == bad;
  }
  ASSERT_FALSE(already);
  sr.schedule.spatial.push_back(DimSlice{bad, 16});
  DiagnosticReport report;
  VerifySlicing(sr.schedule, &report);
  EXPECT_TRUE(report.HasCode("SFV0305")) << report.ToString();
}

// --- ScheduleVerifier -----------------------------------------------------

// front computes e1.out from x; back computes r1.out (the program output)
// from e1.out — the partitioned form of x -> exp -> relu.
struct TwoKernelProgram {
  Graph source;
  ScheduledProgram program;
  TwoKernelProgram() {
    GraphBuilder src("src");
    TensorId x = src.Input("x", Shape({32, 64}));
    TensorId e = src.Unary(UnaryKind::kExp, x, "e1");
    TensorId r = src.Unary(UnaryKind::kRelu, e, "r1");
    src.MarkOutput(r);
    source = src.Build();

    GraphBuilder front("front");
    TensorId fx = front.Input("x", Shape({32, 64}));
    front.MarkOutput(front.Unary(UnaryKind::kExp, fx, "e1"));
    SmgSchedule k1;
    k1.graph = front.Build();

    GraphBuilder back("back");
    TensorId be = back.Input("e1.out", Shape({32, 64}));
    back.MarkOutput(back.Unary(UnaryKind::kRelu, be, "r1"));
    SmgSchedule k2;
    k2.graph = back.Build();

    program.kernels = {std::move(k1), std::move(k2)};
  }
};

TEST(ScheduleVerifierTest, DependencyPreservingOrderPasses) {
  TwoKernelProgram p;
  DiagnosticReport report;
  VerifySchedule(p.program, p.source, &report);
  EXPECT_TRUE(report.empty()) << report.ToString();
}

TEST(ScheduleVerifierTest, BlockOrderViolatesDependency) {
  TwoKernelProgram p;
  std::swap(p.program.kernels[0], p.program.kernels[1]);
  DiagnosticReport report;
  VerifySchedule(p.program, p.source, &report);
  EXPECT_TRUE(report.HasCode("SFV0401")) << report.ToString();
}

TEST(ScheduleVerifierTest, MissingOutputProducer) {
  TwoKernelProgram p;
  p.program.kernels.pop_back();  // nobody computes r1.out any more
  DiagnosticReport report;
  VerifySchedule(p.program, p.source, &report);
  EXPECT_TRUE(report.HasCode("SFV0402")) << report.ToString();
}

TEST(ScheduleVerifierTest, AggregationOrderViolatesReductionChain) {
  SlicingResult sr = SlicedSoftmax();
  ScheduledProgram program;
  program.kernels = {sr.schedule};
  // Softmax reduces max then sum; aggregation rules must keep that serial
  // op order. Install them reversed to break the All-to-One chain.
  std::vector<OpId> reduces;
  for (const Op& op : sr.schedule.graph.ops()) {
    if (op.kind == OpKind::kReduce) {
      reduces.push_back(op.id);
    }
  }
  ASSERT_GE(reduces.size(), 2u);
  program.kernels[0].plan.aggregations.clear();
  for (auto it = reduces.rbegin(); it != reduces.rend(); ++it) {
    ReductionAggregation agg;
    agg.op = *it;
    program.kernels[0].plan.aggregations.push_back(agg);
  }
  DiagnosticReport report;
  VerifySchedule(program, sr.schedule.graph, &report);
  EXPECT_TRUE(report.HasCode("SFV0403")) << report.ToString();
}

// --- MemoryPlanVerifier ---------------------------------------------------

TEST(MemoryPlanVerifierTest, CleanPlanPasses) {
  SlicingResult sr = SlicedSoftmax();
  DiagnosticReport report;
  VerifyMemoryPlan(sr.schedule, ResourceConfig(), &report);
  EXPECT_TRUE(report.empty()) << report.ToString();
}

TEST(MemoryPlanVerifierTest, StaleFootprintDetected) {
  SlicingResult sr = SlicedSoftmax();
  sr.schedule.memory.smem_bytes += 128;  // overlapping/stale allocation
  DiagnosticReport report;
  VerifyMemoryPlan(sr.schedule, ResourceConfig(), &report);
  EXPECT_TRUE(report.HasCode("SFV0502")) << report.ToString();
}

TEST(MemoryPlanVerifierTest, BudgetOverflowDetected) {
  SlicingResult sr = SlicedSoftmax();
  ASSERT_GT(sr.schedule.memory.reg_bytes, 1);
  ResourceConfig tiny;  // same smem budget => identical placement decisions
  tiny.reg_per_block_max = 1;
  DiagnosticReport report;
  VerifyMemoryPlan(sr.schedule, tiny, &report);
  EXPECT_TRUE(report.HasCode("SFV0501")) << report.ToString();
}

TEST(MemoryPlanVerifierTest, PlanSizeMismatchDetected) {
  SlicingResult sr = SlicedSoftmax();
  sr.schedule.memory.tensor_level.pop_back();
  DiagnosticReport report;
  VerifyMemoryPlan(sr.schedule, ResourceConfig(), &report);
  EXPECT_TRUE(report.HasCode("SFV0503")) << report.ToString();
}

// --- Builder error routing (no aborts on malformed user input) ------------

TEST(BuilderStatusTest, BroadcastMismatchReturnsStatus) {
  GraphBuilder b("bad");
  TensorId x = b.Input("x", Shape({8, 16}));
  TensorId y = b.Input("y", Shape({8, 17}));
  TensorId sum = b.Add(x, y);
  EXPECT_EQ(sum, kInvalidTensor);
  // Poison propagation: downstream emits keep returning kInvalidTensor.
  EXPECT_EQ(b.Relu(sum), kInvalidTensor);
  StatusOr<Graph> built = b.TryBuild();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(built.status().message().find("SFV0103"), std::string::npos)
      << built.status().ToString();
}

TEST(BuilderStatusTest, MatMulContractionMismatchReturnsStatus) {
  GraphBuilder b("bad");
  TensorId a = b.Input("a", Shape({8, 16}));
  TensorId w = b.Weight("w", Shape({32, 8}));
  EXPECT_EQ(b.MatMul(a, w), kInvalidTensor);
  StatusOr<Graph> built = b.TryBuild();
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.status().message().find("SFV0103"), std::string::npos);
}

TEST(BuilderStatusTest, MarkOutputOnInputReturnsStatus) {
  GraphBuilder b("bad");
  TensorId x = b.Input("x", Shape({8}));
  b.MarkOutput(x);
  StatusOr<Graph> built = b.TryBuild();
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.status().message().find("SFV0105"), std::string::npos);
}

TEST(BuilderStatusTest, InvalidTensorIdReturnsStatus) {
  GraphBuilder b("bad");
  EXPECT_EQ(b.Relu(kInvalidTensor), kInvalidTensor);
  StatusOr<Graph> built = b.TryBuild();
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.status().message().find("SFV0101"), std::string::npos);
}

TEST(SmgBuilderStatusTest, AlignedExtentMismatchIsInvalidArgument) {
  // Hand-built graph whose unary forces two different extents onto one
  // aligned dim: y is declared [16, 8] against x [8, 16].
  RawGraph raw;
  TensorId x = raw.AddTensor("x", Shape({8, 16}), TensorKind::kInput);
  TensorId y = raw.AddTensor("y", Shape({16, 8}), TensorKind::kOutput);
  raw.AddUnary(x, y);
  StatusOr<SmgBuildResult> built = BuildSmg(raw.g);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(built.status().message().find("SFV0206"), std::string::npos);
}

TEST(SmgBuilderStatusTest, MatMulRankGuard) {
  RawGraph raw;
  TensorId a = raw.AddTensor("a", Shape({4}), TensorKind::kInput);
  TensorId b = raw.AddTensor("b", Shape({4}), TensorKind::kInput);
  TensorId c = raw.AddTensor("c", Shape({4, 4}), TensorKind::kOutput);
  Op op;
  op.kind = OpKind::kMatMul;
  op.inputs = {a, b};
  op.output = c;
  op.name = "mm";
  raw.g.AddOp(std::move(op));
  StatusOr<SmgBuildResult> built = BuildSmg(raw.g);
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.status().message().find("SFV0103"), std::string::npos);
}

// --- Compiler integration -------------------------------------------------

TEST(CompilerVerifyTest, PhaseModeRejectsBrokenGraphWithDiagnostics) {
  RawGraph raw;
  TensorId x = raw.AddTensor("x", Shape({8, 16}), TensorKind::kInput);
  TensorId y = raw.AddTensor("y", Shape({8, 8}), TensorKind::kOutput);
  raw.AddUnary(x, y);
  CompileOptions options;
  options.verify = VerifyMode::kPhase;
  CompilerEngine compiler(options);
  StatusOr<CompiledSubprogram> compiled = compiler.Compile(raw.g);
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(compiled.status().message().find("SFV0103"), std::string::npos)
      << compiled.status().ToString();
}

TEST(CompilerVerifyTest, FullModeCompilesCleanGraph) {
  CompileOptions options;
  options.verify = VerifyMode::kFull;
  CompilerEngine compiler(options);
  StatusOr<CompiledSubprogram> compiled = compiler.Compile(SoftmaxGraph());
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  // The final program also re-verifies clean outside the compiler.
  DiagnosticReport report = VerifyCompiledProgram(
      compiled->program, SoftmaxGraph(), ResourceConfig::FromArch(options.arch));
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(CompilerVerifyTest, OffModeStillCompiles) {
  CompileOptions options;
  options.verify = VerifyMode::kOff;
  CompilerEngine compiler(options);
  EXPECT_TRUE(compiler.Compile(SoftmaxGraph()).ok());
}

}  // namespace
}  // namespace spacefusion
