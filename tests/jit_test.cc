// JIT execution battery: the native-codegen path (cpp_codegen -> jit_cache
// -> JitExecutor) must produce the interpreter's answers on every workload,
// warm-start from disk without re-invoking the toolchain, and degrade to
// the interpreter — never crash — on corrupt cache entries or a broken
// toolchain.
//
// Tolerance policy (see DESIGN.md "Native codegen & JIT kernel cache"): the
// emitted C++ replays the interpreter's exact per-element operation order
// and is built with -ffp-contract=off. On x86-64 without FMA codegen the
// host build cannot contract either, so outputs are bit-identical; on other
// targets we allow a tight relative tolerance.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "src/codegen/cpp_codegen.h"
#include "src/codegen/jit_cache.h"
#include "src/core/model_runner.h"
#include "src/core/spacefusion.h"
#include "src/exec/jit_executor.h"
#include "src/graph/builder.h"
#include "src/graph/models.h"
#include "src/graph/subgraphs.h"
#include "src/schedule/resource_aware.h"
#include "src/sim/arch.h"
#include "src/support/file_util.h"
#include "src/tensor/kernel_math.h"
#include "tests/random_graph.h"
#include "tests/test_dirs.h"

namespace spacefusion {
namespace {

using testing_util::RandomGraph;

#if defined(__x86_64__) && !defined(__FMA__)
// Host build can't contract a*b+c into fma, and the jit flags forbid it:
// the native kernels replay the interpreter bit for bit.
constexpr float kParityTolerance = 0.0f;
#else
constexpr float kParityTolerance = 1e-4f;
#endif

std::string UniqueTestDir(const std::string& tag) {
  return testing_util::UniqueTestDir("sf-jit-test", tag);
}

std::string HexKey(std::uint64_t key) {
  char hex[20];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(key));
  return hex;
}

// One kernel cache shared by every parity test in the process: kernels are
// content-addressed, so reuse across tests is exactly the production
// behavior and keeps the battery from re-invoking the toolchain for
// identical shapes.
JitExecutor& SharedExecutor() {
  static JitExecutor* executor = []() {
    JitExecutorOptions options;
    options.cache.dir = UniqueTestDir("shared");
    return new JitExecutor(options);
  }();
  return *executor;
}

// The unfused (reference_mode) counterpart of SharedExecutor.
JitExecutor& SharedReferenceExecutor() {
  static JitExecutor* executor = []() {
    JitExecutorOptions options;
    options.cache.dir = UniqueTestDir("shared-reference");
    options.codegen.reference_mode = true;
    return new JitExecutor(options);
  }();
  return *executor;
}

StatusOr<CompiledSubprogram> CompileGraph(const Graph& g) {
  CompilerEngine compiler{CompileOptions(AmpereA100())};
  return compiler.Compile(g);
}

// Compiles `g`, runs the program through the interpreter and through
// `executor`, and checks every graph output against both the interpreter
// and the unfused reference.
void ExpectJitMatchesInterpreter(const Graph& g, std::uint64_t seed, JitExecutor& executor,
                                 float tolerance = kParityTolerance) {
  StatusOr<CompiledSubprogram> compiled = CompileGraph(g);
  ASSERT_TRUE(compiled.ok()) << g.ToString() << "\n" << compiled.status().ToString();

  TensorEnv inputs = MakeGraphInputs(g, seed);
  TensorEnv interpreted;
  ASSERT_TRUE(RunScheduledProgram(compiled->program, g, inputs, &interpreted).ok());

  TensorEnv jitted;
  Status st = executor.RunProgram(compiled->program, g, inputs, &jitted);
  ASSERT_TRUE(st.ok()) << st.ToString();

  TensorEnv reference = inputs;
  ASSERT_TRUE(RunReference(g, &reference).ok());

  for (TensorId out : g.OutputIds()) {
    const size_t i = static_cast<size_t>(out);
    EXPECT_LE(MaxRelDiff(jitted[i], interpreted[i]), tolerance)
        << "jit diverges from interpreter on " << g.tensor(out).name << "\n"
        << g.ToString();
    EXPECT_LT(MaxRelDiff(jitted[i], reference[i]), 1e-2f)
        << "jit diverges from reference on " << g.tensor(out).name << "\n"
        << g.ToString();
  }
}

TEST(JitExecutorTest, MhaMatchesInterpreter) {
  Graph g = BuildMha(/*batch_heads=*/4, /*seq_q=*/32, /*seq_kv=*/32, /*head_dim=*/16);
  ExpectJitMatchesInterpreter(g, /*seed=*/11, SharedExecutor());
  EXPECT_GT(SharedExecutor().stats().jit_runs, 0);
  EXPECT_EQ(SharedExecutor().stats().fallbacks, 0);
}

TEST(JitExecutorTest, MaskedMhaMatchesInterpreter) {
  Graph g = BuildMha(/*batch_heads=*/2, /*seq_q=*/24, /*seq_kv=*/24, /*head_dim=*/8,
                     /*masked=*/true);
  ExpectJitMatchesInterpreter(g, /*seed=*/12, SharedExecutor());
}

TEST(JitExecutorTest, LayerNormMatchesInterpreter) {
  Graph g = BuildLayerNormGraph(/*m=*/48, /*n=*/96);
  ExpectJitMatchesInterpreter(g, /*seed=*/13, SharedExecutor());
}

// Every call hands back new output tensors: a caller may hold a result
// while the executor serves the next call.
TEST(JitExecutorTest, EachCallReturnsFreshOutputs) {
  const Graph g = BuildLayerNormGraph(/*m=*/64, /*n=*/256);
  StatusOr<CompiledSubprogram> compiled = CompileGraph(g);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const size_t o = static_cast<size_t>(g.OutputIds()[0]);
  const TensorEnv inputs[2] = {MakeGraphInputs(g, /*seed=*/51), MakeGraphInputs(g, /*seed=*/52)};
  TensorEnv jitted[2];
  ASSERT_TRUE(SharedExecutor().RunProgram(compiled->program, g, inputs[0], &jitted[0]).ok());
  const Tensor held = jitted[0][o].Clone();
  ASSERT_TRUE(SharedExecutor().RunProgram(compiled->program, g, inputs[1], &jitted[1]).ok());
  EXPECT_NE(jitted[0][o].data(), jitted[1][o].data());
  EXPECT_EQ(std::memcmp(held.data(), jitted[0][o].data(),
                        static_cast<size_t>(held.volume()) * sizeof(float)),
            0);
  for (int call = 0; call < 2; ++call) {
    TensorEnv interpreted;
    ASSERT_TRUE(RunScheduledProgram(compiled->program, g, inputs[call], &interpreted).ok());
    EXPECT_LE(MaxRelDiff(jitted[call][o], interpreted[o]), kParityTolerance) << call;
  }
}

TEST(JitExecutorTest, MlpMatchesInterpreter) {
  Graph g = BuildMlp(/*num_layers=*/3, /*m=*/16, /*n=*/32, /*k=*/24);
  ExpectJitMatchesInterpreter(g, /*seed=*/14, SharedExecutor());
}

TEST(JitExecutorTest, FfnMatchesInterpreter) {
  Graph g = BuildFfn(/*tokens=*/32, /*hidden=*/48, /*ffn_dim=*/96, UnaryKind::kGelu,
                     NormKind::kLayerNorm);
  ExpectJitMatchesInterpreter(g, /*seed=*/15, SharedExecutor());
}

TEST(JitExecutorTest, SwigluFfnMatchesInterpreter) {
  Graph g = BuildSwigluFfn(/*tokens=*/24, /*hidden=*/32, /*ffn_dim=*/64);
  ExpectJitMatchesInterpreter(g, /*seed=*/16, SharedExecutor());
}

// Reductions large enough to run in row groups, with rows left over after
// the last group: LayerNorm's 1027 rows (3 left over) and attention's 257
// query rows per head (1 left over), fused and unfused.
TEST(JitExecutorTest, GroupedReductionsWithLeftoverRowsMatchInterpreter) {
  for (const Graph& g : {BuildLayerNormGraph(/*m=*/1027, /*n=*/256),
                         BuildMha(/*batch_heads=*/3, /*seq_q=*/257, /*seq_kv=*/255,
                                  /*head_dim=*/64)}) {
    StatusOr<CompiledSubprogram> compiled = CompileGraph(g);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    StatusOr<std::string> source = EmitCppProgram(compiled->program);
    ASSERT_TRUE(source.ok()) << source.status().ToString();
    const std::string leftover = g.name().starts_with("layernorm") ? " = 1024; " : " = 256; ";
    EXPECT_NE(source->find(leftover), std::string::npos) << g.name();
    ExpectJitMatchesInterpreter(g, /*seed=*/17, SharedExecutor());
    ExpectJitMatchesInterpreter(g, /*seed=*/17, SharedReferenceExecutor());
  }
}

// A row max keeps the interpreter's bits on rows holding -inf and NaN, in
// row groups (259 rows) and one row at a time (16 rows), fused and unfused.
TEST(JitExecutorTest, RowMaxOverInfinitiesAndNansMatchesInterpreter) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (std::int64_t rows : {259, 16}) {
    constexpr std::int64_t kCols = 300;
    GraphBuilder b("row_max_" + std::to_string(rows));
    const TensorId x = b.Input("x", Shape({rows, kCols}));
    const TensorId max = b.Reduce(ReduceKind::kMax, x);
    b.MarkOutput(max);
    b.MarkOutput(b.Sub(x, max));
    const Graph g = b.Build();
    StatusOr<CompiledSubprogram> compiled = CompileGraph(g);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

    TensorEnv inputs = MakeGraphInputs(g, /*seed=*/31);
    float* v = inputs[static_cast<size_t>(x)].data();
    for (std::int64_t r = 0; r < rows; ++r) {
      float* row = v + r * kCols;
      switch (r % 8) {
        case 0:  // all -inf
          std::fill(row, row + kCols, -inf);
          break;
        case 1:  // NaN first
          row[0] = nan;
          break;
        case 2:  // NaN last
          row[kCols - 1] = nan;
          break;
        case 3:  // -inf and NaN among finite values
          row[7] = -inf;
          row[150] = nan;
          break;
        case 4:  // all NaN
          std::fill(row, row + kCols, nan);
          break;
        case 5:  // -inf then NaN, nothing else
          std::fill(row, row + kCols, -inf);
          row[kCols / 2] = nan;
          break;
        default:  // finite
          break;
      }
    }
    TensorEnv interpreted;
    ASSERT_TRUE(RunScheduledProgram(compiled->program, g, inputs, &interpreted).ok());
    for (JitExecutor* executor : {&SharedExecutor(), &SharedReferenceExecutor()}) {
      const std::int64_t fallbacks = executor->stats().fallbacks;
      TensorEnv jitted;
      Status st = executor->RunProgram(compiled->program, g, inputs, &jitted);
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(executor->stats().fallbacks, fallbacks);
      for (TensorId out : g.OutputIds()) {
        const Tensor& want = interpreted[static_cast<size_t>(out)];
        const Tensor& got = jitted[static_cast<size_t>(out)];
        ASSERT_EQ(got.shape(), want.shape());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              static_cast<size_t>(want.volume()) * sizeof(float)),
                  0)
            << g.name() << " " << g.tensor(out).name;
      }
    }
  }
}

// True when some kernel of `g`'s compiled program runs a parallel region.
bool HasParallelRegion(const Graph& g) {
  StatusOr<CompiledSubprogram> compiled = CompileGraph(g);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  StatusOr<std::string> source = EmitCppProgram(compiled->program);
  EXPECT_TRUE(source.ok()) << source.status().ToString();
  return source.value().find("sf_for(") != std::string::npos;
}

// Kernel pool threads belong to the process, not to a kernel's shared
// object: destroying a cache dlcloses kernels that just ran in parallel, and
// a fresh cache in the same process builds, binds and runs them again.
TEST(JitExecutorTest, ParallelKernelsSurviveCacheUnload) {
  Graph g = BuildLayerNormGraph(/*m=*/512, /*n=*/512);
  ASSERT_TRUE(HasParallelRegion(g));
  for (int round = 0; round < 2; ++round) {
    JitExecutorOptions options;
    options.cache.dir = UniqueTestDir("unload");
    JitExecutor executor(options);
    ExpectJitMatchesInterpreter(g, /*seed=*/51, executor);
    EXPECT_EQ(executor.cache().stats().builds, 1);
    EXPECT_EQ(executor.stats().fallbacks, 0);
  }
}

// Two threads run programs through one executor (one kernel cache, one
// kernel pool) at once; each output equals the interpreter's.
TEST(JitExecutorTest, ConcurrentRunsMatchInterpreter) {
  JitExecutorOptions options;
  options.cache.dir = UniqueTestDir("concurrent");
  JitExecutor executor(options);
  const std::vector<Graph> graphs = {BuildLayerNormGraph(/*m=*/512, /*n=*/512),
                                     BuildMha(/*batch_heads=*/4, /*seq_q=*/128,
                                              /*seq_kv=*/128, /*head_dim=*/64)};
  std::vector<CompiledSubprogram> compiled;
  std::vector<TensorEnv> inputs;
  std::vector<TensorEnv> interpreted(graphs.size());
  for (size_t i = 0; i < graphs.size(); ++i) {
    ASSERT_TRUE(HasParallelRegion(graphs[i]));
    StatusOr<CompiledSubprogram> c = CompileGraph(graphs[i]);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    compiled.push_back(std::move(c).value());
    inputs.push_back(MakeGraphInputs(graphs[i], /*seed=*/61 + i));
    ASSERT_TRUE(
        RunScheduledProgram(compiled[i].program, graphs[i], inputs[i], &interpreted[i]).ok());
  }
  constexpr int kRuns = 4;
  std::vector<std::vector<TensorEnv>> jitted(graphs.size(), std::vector<TensorEnv>(kRuns));
  std::vector<Status> status(graphs.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < graphs.size(); ++i) {
    threads.emplace_back([&, i] {
      for (int run = 0; run < kRuns && status[i].ok(); ++run) {
        status[i] = executor.RunProgram(compiled[i].program, graphs[i], inputs[i], &jitted[i][run]);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (size_t i = 0; i < graphs.size(); ++i) {
    ASSERT_TRUE(status[i].ok()) << status[i].ToString();
    for (int run = 0; run < kRuns; ++run) {
      for (TensorId out : graphs[i].OutputIds()) {
        const size_t t = static_cast<size_t>(out);
        EXPECT_LE(MaxRelDiff(jitted[i][run][t], interpreted[i][t]), kParityTolerance)
            << graphs[i].name() << " run " << run;
      }
    }
  }
  EXPECT_EQ(executor.stats().fallbacks, 0);
}

// Matmul shapes that hit every remainder of the 4 x 64 register tile and the
// 256-deep k block (M, N, K below, equal to, and not a multiple of them),
// both operand transposes, batch broadcasting, and fewer heads than pool
// threads; fused and unfused emission, each against the interpreter.
struct MatMulCase {
  std::string name;
  std::vector<std::int64_t> a;
  std::vector<std::int64_t> b;
  bool transpose_a = false;
  bool transpose_b = false;
};

// Test ids print the case name, not the struct's bytes.
void PrintTo(const MatMulCase& c, std::ostream* os) { *os << c.name; }

class JitMatMulShapeTest : public ::testing::TestWithParam<MatMulCase> {};

TEST_P(JitMatMulShapeTest, MatchesInterpreterBitForBit) {
  const MatMulCase& c = GetParam();
  GraphBuilder b("matmul_" + c.name);
  TensorId a = b.Input("a", Shape(c.a), DType::kF32);
  TensorId w = b.Weight("b", Shape(c.b), DType::kF32);
  b.MarkOutput(b.MatMul(a, w, c.transpose_a, c.transpose_b));
  StatusOr<Graph> g = b.TryBuild();
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  ExpectJitMatchesInterpreter(g.value(), /*seed=*/71, SharedExecutor());
  ExpectJitMatchesInterpreter(g.value(), /*seed=*/71, SharedReferenceExecutor());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, JitMatMulShapeTest,
    ::testing::Values(
        MatMulCase{"m1_n65_k300", {1, 300}, {300, 65}},
        MatMulCase{"m13_n1_k64_tb", {13, 64}, {1, 64}, false, true},
        MatMulCase{"m64_n13_k1", {64, 1}, {1, 13}},
        MatMulCase{"m65_n300_k300", {65, 300}, {300, 300}},
        MatMulCase{"m13_n300_k300_tb", {13, 300}, {300, 300}, false, true},
        MatMulCase{"m300_n130_k65_ta", {65, 300}, {65, 130}, true, false},
        MatMulCase{"m64_n300_k13_tb", {64, 13}, {300, 13}, false, true},
        MatMulCase{"m65_n13_k64_ta_tb", {64, 65}, {13, 64}, true, true},
        MatMulCase{"m4_n128_k256", {4, 256}, {256, 128}},
        MatMulCase{"m8_n64_k512_tb", {8, 512}, {64, 512}, false, true},
        MatMulCase{"batched_a_unbatched_b", {3, 13, 65}, {65, 70}},
        MatMulCase{"unbatched_a_batched_b_tb", {13, 65}, {3, 70, 65}, false, true},
        MatMulCase{"two_heads_m64_n128_k256", {2, 64, 256}, {2, 256, 128}},
        MatMulCase{"two_heads_m64_n64_k300_tb", {1, 2, 64, 300}, {1, 2, 64, 300}, false,
                   true}),
    [](const ::testing::TestParamInfo<MatMulCase>& info) { return info.param.name; });

// Acceptance criterion: the JitExecutor runs all 5 zoo models with outputs
// matching the interpreter within the documented tolerance.
TEST(JitExecutorTest, AllZooModelsMatchInterpreter) {
  for (ModelKind kind : AllModelKinds()) {
    ModelGraph model = BuildModel(GetModelConfig(kind, /*batch=*/1, /*seq=*/64));
    // Parity per unique subprogram graph: repetitions execute the same
    // kernels on different values, which adds runtime but no coverage.
    std::vector<std::string> seen;
    std::uint64_t seed = 100;
    for (const Subprogram& sub : model.subprograms) {
      std::string print = sub.graph.ToString();
      bool dup = false;
      for (const std::string& s : seen) {
        dup = dup || s == print;
      }
      if (dup) {
        continue;
      }
      seen.push_back(print);
      SCOPED_TRACE(std::string(ModelKindName(kind)) + " / " + sub.graph.name());
      ExpectJitMatchesInterpreter(sub.graph, seed++, SharedExecutor());
    }
  }
  EXPECT_EQ(SharedExecutor().stats().fallbacks, 0);
}

// A broken toolchain must not break execution: every kernel falls back to
// the interpreter and the program still produces reference answers. The
// cache remembers each failed build, so running the program again invokes
// the toolchain no further.
TEST(JitExecutorTest, BrokenToolchainFallsBackToInterpreter) {
  JitExecutorOptions options;
  options.cache.dir = UniqueTestDir("broken-toolchain");
  options.cache.compiler = "/bin/false";
  JitExecutor executor(options);

  Graph g = BuildLayerNormGraph(/*m=*/16, /*n=*/32);
  StatusOr<CompiledSubprogram> compiled = CompileGraph(g);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const auto kernels = static_cast<std::int64_t>(compiled->program.kernels.size());
  for (int run = 0; run < 2; ++run) {
    ExpectJitMatchesInterpreter(g, /*seed=*/21, executor, /*tolerance=*/0.0f);
  }
  EXPECT_EQ(executor.stats().jit_runs, 0);
  EXPECT_EQ(executor.stats().fallbacks, 2 * kernels);
  EXPECT_EQ(executor.cache().stats().failures, kernels);
  EXPECT_EQ(executor.cache().stats().toolchain_invocations, kernels);
}

// The caller's tensors are checked once, at the program boundary: a wrong
// input shape, a short env or an undefined weight is INVALID_ARGUMENT from
// both executors before any kernel runs — no JIT fallback, and no abort
// inside the interpreter.
TEST(JitExecutorTest, MalformedInputsAreRejectedAtTheProgramBoundary) {
  GraphBuilder b("mlp");
  const TensorId x = b.Input("x", Shape({64, 128}));
  const TensorId w1 = b.Weight("w1", Shape({128, 128}));
  const TensorId w2 = b.Weight("w2", Shape({128, 128}));
  b.MarkOutput(b.MatMul(b.Relu(b.MatMul(x, w1)), w2));
  const Graph g = b.Build();
  StatusOr<CompiledSubprogram> compiled = CompileGraph(g);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  TensorEnv wrong_shape = MakeGraphInputs(g, /*seed=*/5);
  wrong_shape[static_cast<size_t>(x)] = Tensor::Random(Shape({32, 128}), /*seed=*/6);
  TensorEnv short_env = MakeGraphInputs(g, /*seed=*/5);
  short_env.pop_back();
  const std::string last = g.tensors().back().name;
  TensorEnv undefined = MakeGraphInputs(g, /*seed=*/5);
  undefined[static_cast<size_t>(w2)] = Tensor();

  JitExecutorOptions options;
  options.cache.dir = UniqueTestDir("boundary");
  JitExecutor executor(options);
  for (const auto& [env, tensor] : {std::pair<TensorEnv*, std::string>{&wrong_shape, "x"},
                                    {&short_env, last}, {&undefined, "w2"}}) {
    TensorEnv out;
    const Status interpreted = RunScheduledProgram(compiled->program, g, *env, &out);
    const Status jitted = executor.RunProgram(compiled->program, g, *env, &out);
    for (const Status& st : {interpreted, jitted}) {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
      EXPECT_NE(st.message().find(tensor), std::string::npos) << st.ToString();
    }
  }
  EXPECT_EQ(executor.stats().jit_runs, 0);
  EXPECT_EQ(executor.stats().fallbacks, 0);
  EXPECT_EQ(executor.cache().stats().toolchain_invocations, 0);
}

// Differential corpus: random graphs, one executor, jit vs interpreter.
class JitDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(JitDifferentialTest, JitMatchesInterpreterOnRandomGraphs) {
  // Seed stride disjoint from fuzz_test's and differential_test's corpora.
  std::uint64_t seed = static_cast<std::uint64_t>(GetParam()) * 40503001ULL + 17;
  Graph g = RandomGraph(seed);
  ASSERT_TRUE(g.Validate().ok());
  ExpectJitMatchesInterpreter(g, seed ^ 0xA5, SharedExecutor());
}

INSTANTIATE_TEST_SUITE_P(Seeds, JitDifferentialTest, ::testing::Range(0, 8));

class JitCacheTest : public ::testing::Test {
 protected:
  // Emits the single-kernel program for a small graph.
  CppKernel EmitOneKernel(const Graph& g) {
    StatusOr<CompiledSubprogram> compiled = CompileGraph(g);
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    EXPECT_FALSE(compiled->program.kernels.empty());
    StatusOr<CppKernel> kernel = EmitCppKernel(compiled->program.kernels[0]);
    EXPECT_TRUE(kernel.ok()) << kernel.status().ToString();
    return kernel.value();
  }
};

// A cache told no directory makes its own, never shared with another
// cache, and removes it with everything in it when it is destroyed; a
// directory the caller named outlives the cache.
TEST_F(JitCacheTest, OwnDirectoryDiesWithTheCacheANamedOneSurvives) {
  CppKernel kernel = EmitOneKernel(BuildLayerNormGraph(8, 16));
  std::string own_dir;
  {
    JitKernelCache cache;
    own_dir = cache.dir();
    EXPECT_NE(JitKernelCache().dir(), own_dir);
    ASSERT_TRUE(cache.GetOrBuild(kernel).ok());
    EXPECT_FALSE(ListDirectory(own_dir).empty());
  }
  EXPECT_FALSE(std::filesystem::exists(own_dir)) << own_dir;

  JitCacheOptions named;
  named.dir = UniqueTestDir("named");
  {
    JitKernelCache cache(named);
    ASSERT_TRUE(cache.GetOrBuild(kernel).ok());
  }
  EXPECT_FALSE(ListDirectory(named.dir).empty());
}

// Acceptance criterion: a second process pointed at the same cache dir
// performs ZERO toolchain invocations.
TEST_F(JitCacheTest, WarmStartFromDiskSkipsToolchain) {
  const std::string dir = UniqueTestDir("warm");
  CppKernel kernel = EmitOneKernel(BuildLayerNormGraph(8, 16));

  JitCacheOptions cold_options;
  cold_options.dir = dir;
  {
    JitKernelCache cold(cold_options);
    StatusOr<JitKernelCache::Kernel> built = cold.GetOrBuild(kernel);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    EXPECT_EQ(cold.stats().builds, 1);
    EXPECT_EQ(cold.stats().toolchain_invocations, 1);
    // Second lookup in the same process: in-memory hit, still one build.
    ASSERT_TRUE(cold.GetOrBuild(kernel).ok());
    EXPECT_EQ(cold.stats().memory_hits, 1);
    EXPECT_EQ(cold.stats().toolchain_invocations, 1);
  }

  // "Restarted" cache on the same directory: served from disk, no build.
  JitKernelCache warm(cold_options);
  StatusOr<JitKernelCache::Kernel> loaded = warm.GetOrBuild(kernel);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(warm.stats().builds, 0);
  EXPECT_EQ(warm.stats().toolchain_invocations, 0);
  EXPECT_EQ(warm.stats().disk_hits, 1);
}

TEST_F(JitCacheTest, CorruptEntryIsEvictedAndRebuilt) {
  const std::string dir = UniqueTestDir("corrupt");
  CppKernel kernel = EmitOneKernel(BuildLayerNormGraph(8, 16));

  JitCacheOptions options;
  options.dir = dir;
  std::string so_path;
  {
    JitKernelCache cache(options);
    StatusOr<JitKernelCache::Kernel> built = cache.GetOrBuild(kernel);
    ASSERT_TRUE(built.ok());
    so_path = dir + "/";
    char hex[20];
    std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(built->key));
    so_path += std::string(hex) + ".sfk.so";
  }
  // Truncate the .so into garbage.
  {
    std::ofstream f(so_path, std::ios::trunc | std::ios::binary);
    ASSERT_TRUE(f.good());
    f << "not an ELF object";
  }

  JitKernelCache cache(options);
  StatusOr<JitKernelCache::Kernel> rebuilt = cache.GetOrBuild(kernel);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(cache.stats().corrupt, 1);
  EXPECT_EQ(cache.stats().builds, 1);
}

// A valid shared object that lacks the expected symbol (e.g. written by a
// different emitter version at the same path) is corrupt, not a crash.
TEST_F(JitCacheTest, StaleSymbolIsCorrupt) {
  const std::string dir = UniqueTestDir("stale");
  CppKernel a = EmitOneKernel(BuildLayerNormGraph(8, 16));
  CppKernel b = EmitOneKernel(BuildLayerNormGraph(12, 16));
  ASSERT_NE(a.key, b.key);

  JitCacheOptions options;
  options.dir = dir;
  auto entry_so = [&](std::uint64_t entry_key) {
    char hex[20];
    std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(entry_key));
    return dir + "/" + std::string(hex) + ".sfk.so";
  };

  std::uint64_t a_entry = 0;
  {
    JitKernelCache cache(options);
    StatusOr<JitKernelCache::Kernel> built = cache.GetOrBuild(a);
    ASSERT_TRUE(built.ok());
    a_entry = built->key;
  }
  // Plant kernel a's perfectly valid .so at kernel b's path.
  std::uint64_t b_entry = 0;
  {
    StatusOr<std::string> blob = ReadFileToString(entry_so(a_entry));
    ASSERT_TRUE(blob.ok());
    // Discover b's entry path by planting at every possible location is
    // overkill — rebuild b once to learn it, then overwrite.
    JitKernelCache cache(options);
    StatusOr<JitKernelCache::Kernel> built = cache.GetOrBuild(b);
    ASSERT_TRUE(built.ok());
    b_entry = built->key;
    ASSERT_TRUE(AtomicWriteFile(entry_so(b_entry), blob.value()).ok());
  }

  JitKernelCache cache(options);
  StatusOr<JitKernelCache::Kernel> rebuilt = cache.GetOrBuild(b);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(cache.stats().builds, 1);
  EXPECT_EQ(cache.stats().corrupt, 1);
}

// A corrupt entry with compilation disabled — the toolchain is /bin/false,
// so every rebuild fails: the cache evicts the entry, and an executor on top
// of it falls back to the interpreter with correct outputs — the "never
// crash" contract.
TEST_F(JitCacheTest, CorruptEntryWithCompileDisabledFallsBack) {
  const std::string dir = UniqueTestDir("corrupt-nocompile");
  Graph g = BuildLayerNormGraph(8, 16);
  CppKernel kernel = EmitOneKernel(g);

  JitExecutorOptions options;
  options.cache.dir = dir;
  options.cache.compiler = "/bin/false";
  // A failed build still writes the entry's .sfk.cc; corrupt the .sfk.so
  // next to it.
  {
    JitKernelCache cache(options.cache);
    ASSERT_FALSE(cache.GetOrBuild(kernel).ok());
  }
  std::string so_path;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string path = entry.path().string();
    if (path.ends_with(".sfk.cc")) {
      so_path = path.substr(0, path.size() - 3) + ".so";
    }
  }
  ASSERT_FALSE(so_path.empty());
  {
    std::ofstream f(so_path, std::ios::trunc | std::ios::binary);
    f << "garbage";
  }

  JitExecutor executor(options);
  ExpectJitMatchesInterpreter(g, /*seed=*/31, executor, /*tolerance=*/0.0f);
  EXPECT_GT(executor.stats().fallbacks, 0);
  EXPECT_EQ(executor.cache().stats().corrupt, 1);
  EXPECT_FALSE(std::filesystem::exists(so_path));  // evicted, and the rebuild failed
}

// A shared object that has the entry point but no bind entry (built by an
// older emitter, say) is corrupt: evicted and rebuilt, never run unbound.
TEST_F(JitCacheTest, MissingBindSymbolIsCorrupt) {
  const std::string dir = UniqueTestDir("no-bind");
  CppKernel kernel = EmitOneKernel(BuildLayerNormGraph(8, 16));
  JitCacheOptions options;
  options.dir = dir;

  // The same source without its bind entry, under another key: it builds,
  // but a freshly built object missing the symbol does not load either.
  CppKernel unbound = kernel;
  unbound.key ^= 1;
  const std::string bind = kernel.symbol + "_bind(";
  const size_t at = unbound.source.find(bind);
  ASSERT_NE(at, std::string::npos);
  unbound.source.replace(at, bind.size(), kernel.symbol + "_unbound(");
  std::string unbound_so;
  std::string kernel_so;
  {
    JitKernelCache cache(options);
    ASSERT_FALSE(cache.GetOrBuild(unbound).ok());
    EXPECT_EQ(cache.stats().failures, 1);
    StatusOr<JitKernelCache::Kernel> built = cache.GetOrBuild(kernel);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string path = entry.path().string();
      if (path.ends_with(".sfk.so")) {
        (path.find(HexKey(built->key)) == std::string::npos ? unbound_so : kernel_so) = path;
      }
    }
  }
  ASSERT_FALSE(unbound_so.empty());
  ASSERT_FALSE(kernel_so.empty());
  std::filesystem::copy_file(unbound_so, kernel_so,
                             std::filesystem::copy_options::overwrite_existing);

  JitKernelCache cache(options);
  StatusOr<JitKernelCache::Kernel> rebuilt = cache.GetOrBuild(kernel);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(cache.stats().corrupt, 1);
  EXPECT_EQ(cache.stats().builds, 1);
}

// The compile flags are part of every entry key, and by default they name
// the host's ISA level: a cache directory shared by hosts of different
// levels never serves one host's object to another.
TEST_F(JitCacheTest, FlagsArePartOfTheEntryKey) {
  const std::string flags = JitCacheOptions().flags;
  EXPECT_NE(flags.find("-ffp-contract=off"), std::string::npos);
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12
  // GCC names the psABI levels itself; the flags must pick the same one.
  const char* want = __builtin_cpu_supports("x86-64-v4")   ? " -march=x86-64-v4"
                     : __builtin_cpu_supports("x86-64-v3") ? " -march=x86-64-v3"
                     : __builtin_cpu_supports("x86-64-v2") ? " -march=x86-64-v2"
                                                           : "";
  EXPECT_EQ(flags, std::string("-O3 -std=c++17 -fPIC -shared -nostdlib -ffp-contract=off "
                               "-fno-math-errno") +
                       want);
#endif
  CppKernel kernel = EmitOneKernel(BuildLayerNormGraph(8, 16));
  JitCacheOptions host;
  host.dir = UniqueTestDir("flags");
  JitCacheOptions other = host;
  other.flags += " -DSF_OTHER_HOST";
  JitKernelCache a(host);
  JitKernelCache b(other);
  StatusOr<JitKernelCache::Kernel> ka = a.GetOrBuild(kernel);
  StatusOr<JitKernelCache::Kernel> kb = b.GetOrBuild(kernel);
  ASSERT_TRUE(ka.ok()) << ka.status().ToString();
  ASSERT_TRUE(kb.ok()) << kb.status().ToString();
  EXPECT_NE(ka->key, kb->key);
  EXPECT_EQ(b.stats().builds, 1);
  EXPECT_EQ(b.stats().disk_hits, 0);
}

// No lock is held across a toolchain run. With a compiler that takes over
// 2 s per kernel, a lookup of a loaded kernel returns at once while another
// kernel builds, and a second lookup of the kernel being built waits for
// that build instead of running the toolchain again.
TEST_F(JitCacheTest, BuildsHoldNoLockAndRunOncePerKernel) {
  const std::string dir = UniqueTestDir("slow-toolchain");
  std::filesystem::create_directories(dir);
  const std::string started = dir + "/started";
  const std::string compiler = dir + "/slow-c++";
  {
    std::ofstream script(compiler);
    script << "#!/bin/sh\ntouch '" << started << "'\nsleep 2\nexec c++ \"$@\"\n";
  }
  std::filesystem::permissions(compiler, std::filesystem::perms::owner_all);
  JitCacheOptions options;
  options.dir = dir;
  options.compiler = compiler;
  JitKernelCache cache(options);
  const CppKernel loaded = EmitOneKernel(BuildLayerNormGraph(8, 16));
  const CppKernel building = EmitOneKernel(BuildLayerNormGraph(8, 32));
  ASSERT_TRUE(cache.GetOrBuild(loaded).ok());
  std::filesystem::remove(started);

  StatusOr<JitKernelCache::Kernel> first = Internal("not run");
  StatusOr<JitKernelCache::Kernel> second = Internal("not run");
  std::thread builder([&] { first = cache.GetOrBuild(building); });
  for (int i = 0; i < 3000 && !std::filesystem::exists(started); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(std::filesystem::exists(started));
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(cache.GetOrBuild(loaded).ok());
  const double hit_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  std::thread waiter([&] { second = cache.GetOrBuild(building); });
  builder.join();
  waiter.join();
  EXPECT_LT(hit_ms, 100.0);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(first->fn, second->fn);
  const JitKernelCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.toolchain_invocations, 2);
  EXPECT_EQ(stats.builds, 2);
  EXPECT_EQ(stats.memory_hits, 2);
}

// The executor hands kernels uninitialized scratch: every kernel must write
// each scratch and output element before reading it. NaN-filled buffers
// therefore give the same output bits as zero-filled ones, in both
// codegen modes, for parallel kernels and for a temporal one. The fused
// outputs also match the interpreter running the same schedule, which is
// the temporal emission's parity check.
TEST(JitKernelTest, NanFilledBuffersGiveZeroFilledBits) {
  std::vector<SmgSchedule> schedules;
  for (const Graph& g :
       {BuildLayerNormGraph(/*m=*/512, /*n=*/512),
        BuildMha(/*batch_heads=*/4, /*seq_q=*/128, /*seq_kv=*/128, /*head_dim=*/64),
        BuildFfn(/*tokens=*/64, /*hidden=*/128, /*ffn_dim=*/512, UnaryKind::kGelu,
                 NormKind::kLayerNorm)}) {
    StatusOr<CompiledSubprogram> compiled = CompileGraph(g);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    for (const SmgSchedule& kernel : compiled->program.kernels) {
      schedules.push_back(kernel);
    }
  }
  // The first random graph the slicer can run temporally, forced onto its
  // first temporal config.
  const ResourceConfig rc = ResourceConfig::FromArch(AmpereA100());
  const size_t fused = schedules.size();
  for (std::uint64_t seed = 0; seed < 64 && schedules.size() == fused; ++seed) {
    StatusOr<SlicingResult> sliced = ResourceAwareSlicing(RandomGraph(seed), rc);
    ASSERT_TRUE(sliced.ok()) << sliced.status().ToString();
    for (const ScheduleConfig& c : sliced->configs) {
      if (c.use_temporal) {
        sliced->schedule.ApplyConfig(c);
        if (sliced->schedule.NumIntraBlocks() > 1) {
          schedules.push_back(sliced->schedule);
          break;
        }
      }
    }
  }
  ASSERT_GT(schedules.size(), fused) << "no random graph sliced temporally";

  JitCacheOptions options;
  options.dir = UniqueTestDir("poison");
  JitKernelCache cache(options);
  bool parallel_run = false;
  bool temporal_run = false;
  for (const SmgSchedule& schedule : schedules) {
    const TensorEnv env = MakeGraphInputs(schedule.graph, /*seed=*/81);
    for (bool reference_mode : {false, true}) {
      CppCodegenOptions codegen;
      codegen.reference_mode = reference_mode;
      StatusOr<CppKernel> kernel = EmitCppKernel(schedule, codegen);
      ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
      StatusOr<JitKernelCache::Kernel> loaded = cache.GetOrBuild(kernel.value());
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      parallel_run = parallel_run || kernel->source.find("sf_for(") != std::string::npos;
      temporal_run =
          temporal_run || kernel->source.find("mode: fused, temporal") != std::string::npos;
      std::vector<const float*> in;
      for (TensorId t : kernel->input_ids) {
        in.push_back(env[static_cast<size_t>(t)].data());
      }
      std::vector<std::vector<float>> outputs[2];
      for (int poisoned = 0; poisoned < 2; ++poisoned) {
        const float fill = poisoned ? std::numeric_limits<float>::quiet_NaN() : 0.0f;
        std::vector<float*> out;
        for (TensorId t : kernel->output_ids) {
          outputs[poisoned].emplace_back(
              static_cast<size_t>(schedule.graph.tensor(t).shape.volume()), fill);
        }
        for (std::vector<float>& buffer : outputs[poisoned]) {
          out.push_back(buffer.data());
        }
        std::vector<float> scratch(static_cast<size_t>(loaded->scratch_floats), fill);
        ASSERT_EQ(loaded->fn(in.data(), out.data(), scratch.data()), 0);
      }
      TensorEnv interpreted = env;
      ASSERT_TRUE(RunSchedule(schedule, &interpreted).ok());
      for (size_t o = 0; o < outputs[0].size(); ++o) {
        EXPECT_EQ(std::memcmp(outputs[0][o].data(), outputs[1][o].data(),
                              outputs[0][o].size() * sizeof(float)),
                  0)
            << schedule.graph.name() << " output " << o
            << (reference_mode ? " (reference mode)" : "");
        if (!reference_mode) {
          const Tensor& want = interpreted[static_cast<size_t>(kernel->output_ids[o])];
          int mismatches = 0;  // NaN-aware: a NaN never compares <= the tolerance
          for (size_t i = 0; i < outputs[0][o].size(); ++i) {
            const float diff = std::fabs(outputs[0][o][i] - want.data()[i]) /
                               (std::fabs(want.data()[i]) + 1e-5f);
            mismatches += diff <= kParityTolerance ? 0 : 1;
          }
          EXPECT_EQ(mismatches, 0) << schedule.graph.name() << " output " << o;
        }
      }
    }
  }
  EXPECT_TRUE(parallel_run);
  EXPECT_TRUE(temporal_run);
}

TEST(CppCodegenTest, EmissionIsDeterministic) {
  StatusOr<CompiledSubprogram> compiled = CompileGraph(BuildMha(2, 32, 32, 16));
  ASSERT_TRUE(compiled.ok());
  StatusOr<std::string> first = EmitCppProgram(compiled->program);
  StatusOr<std::string> second = EmitCppProgram(compiled->program);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value(), second.value());
}

TEST(CppCodegenTest, BakesShapesAsConstants) {
  Graph g = BuildMha(2, 32, 32, 16);
  StatusOr<CompiledSubprogram> compiled = CompileGraph(g);
  ASSERT_TRUE(compiled.ok());
  StatusOr<CppKernel> kernel = EmitCppKernel(compiled->program.kernels[0]);
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  // The ABI is fixed and the symbol carries the content hash.
  EXPECT_NE(kernel->source.find("extern \"C\" int " + kernel->symbol), std::string::npos);
  EXPECT_EQ(kernel->symbol.rfind("sf_k_", 0), 0u);
  EXPECT_EQ(kernel->symbol.size(), 5u + 16u);
  // The bind entry the loader hands the kernel pool to.
  EXPECT_NE(kernel->source.find("extern \"C\" void " + kernel->symbol + "_bind("),
            std::string::npos);
  // No runtime shape parameters: extents live in the source as literals.
  EXPECT_EQ(kernel->source.find("shape"), std::string::npos);
  // No headers: the translation unit builds standalone.
  EXPECT_EQ(kernel->source.find("#include"), std::string::npos);
  EXPECT_FALSE(kernel->input_ids.empty());
  EXPECT_FALSE(kernel->output_ids.empty());
}

TEST(CppCodegenTest, OptionsChangeTheKey) {
  StatusOr<CompiledSubprogram> compiled = CompileGraph(BuildLayerNormGraph(8, 16));
  ASSERT_TRUE(compiled.ok());
  CppCodegenOptions plain;
  CppCodegenOptions reference;
  reference.reference_mode = true;
  StatusOr<CppKernel> a = EmitCppKernel(compiled->program.kernels[0], plain);
  StatusOr<CppKernel> b = EmitCppKernel(compiled->program.kernels[0], reference);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->key, b->key);
  EXPECT_NE(CppCodegenOptionsDigest(plain), CppCodegenOptionsDigest(reference));
}

// The shared math is pasted verbatim into the kernels that call exp or tanh
// (attention's softmax, the FFN's GELU), and into no other kernel.
TEST(CppCodegenTest, SharedMathIsPastedOnlyIntoKernelsThatCallIt) {
  int with_math = 0;
  int without_math = 0;
  for (const Graph& g : {BuildMha(2, 32, 32, 16), BuildLayerNormGraph(8, 16),
                         BuildFfn(/*tokens=*/32, /*hidden=*/48, /*ffn_dim=*/96,
                                  UnaryKind::kGelu, NormKind::kLayerNorm)}) {
    StatusOr<CompiledSubprogram> compiled = CompileGraph(g);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    for (const SmgSchedule& schedule : compiled->program.kernels) {
      bool calls = false;
      for (const Op& op : schedule.graph.ops()) {
        const UnaryKind u = op.attrs.unary;
        calls = calls ||
                (op.kind == OpKind::kUnary && (u == UnaryKind::kExp || u == UnaryKind::kGelu));
      }
      StatusOr<CppKernel> kernel = EmitCppKernel(schedule);
      ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
      EXPECT_EQ(kernel->source.find(kSfMathSource) != std::string::npos, calls)
          << schedule.graph.name();
      EXPECT_EQ(kernel->source.find("sf_exp") != std::string::npos, calls)
          << schedule.graph.name();
      (calls ? with_math : without_math) += 1;
    }
  }
  EXPECT_GE(with_math, 2);
  EXPECT_GE(without_math, 1);
}

// Scratch buffer of `t` in an emitted kernel's source.
bool StoresTensor(const CppKernel& kernel, TensorId t) {
  return kernel.source.find("float* __restrict__ s_t" + std::to_string(t) + " = scratch") !=
         std::string::npos;
}

// The first unary / binary op of `g` of the given kind; -1 when none.
OpId FindOp(const Graph& g, UnaryKind kind) {
  for (const Op& op : g.ops()) {
    if (op.kind == OpKind::kUnary && op.attrs.unary == kind) {
      return op.id;
    }
  }
  return -1;
}
OpId FindOp(const Graph& g, BinaryKind kind) {
  for (const Op& op : g.ops()) {
    if (op.kind == OpKind::kBinary && op.attrs.binary == kind) {
      return op.id;
    }
  }
  return -1;
}

// A one-flop element-wise intermediate whose consumers each read an element
// once is recomputed in every consumer instead of stored, unless one of its
// own operands is recomputed; division and transcendentals stay stored, and
// reference_mode stores every intermediate.
TEST(CppCodegenTest, CheapMultiConsumerIntermediatesAreRecomputed) {
  StatusOr<CompiledSubprogram> ln = CompileGraph(BuildLayerNormGraph(2048, 2048));
  ASSERT_TRUE(ln.ok()) << ln.status().ToString();
  ASSERT_EQ(ln->program.kernels.size(), 1u);
  CppCodegenOptions reference;
  reference.reference_mode = true;
  StatusOr<CppKernel> fused = EmitCppKernel(ln->program.kernels[0]);
  StatusOr<CppKernel> unfused = EmitCppKernel(ln->program.kernels[0], reference);
  ASSERT_TRUE(fused.ok() && unfused.ok());
  // x - mean (two consumers) is recomputed: only the per-row statistics
  // take scratch, no 2048 x 2048 buffer.
  EXPECT_LE(fused->scratch_floats, 3 * 2048 + 16);
  EXPECT_GE(unfused->scratch_floats, 2048 * 2048);

  StatusOr<CompiledSubprogram> mha = CompileGraph(BuildMha(12, 256, 256, 64));
  ASSERT_TRUE(mha.ok()) << mha.status().ToString();
  ASSERT_EQ(mha->program.kernels.size(), 1u);
  const Graph& mg = mha->program.kernels[0].graph;
  StatusOr<CppKernel> attention = EmitCppKernel(mha->program.kernels[0]);
  ASSERT_TRUE(attention.ok()) << attention.status().ToString();
  const OpId exp = FindOp(mg, UnaryKind::kExp);
  const OpId scale = FindOp(mg, BinaryKind::kMul);
  ASSERT_GE(exp, 0);
  ASSERT_GE(scale, 0);
  EXPECT_TRUE(StoresTensor(*attention, mg.op(exp).output));
  EXPECT_FALSE(StoresTensor(*attention, mg.op(scale).output));

  // sum = (x * y) + y has two consumers, but its operand x * y is itself
  // inlined (one consumer), so sum stays stored.
  GraphBuilder b("recompute_chain");
  const TensorId x = b.Input("x", Shape({64, 128}));
  const TensorId y = b.Input("y", Shape({64, 128}));
  const TensorId sum = b.Add(b.Mul(x, y), y);
  b.MarkOutput(b.Mul(sum, b.Reduce(ReduceKind::kSum, sum)));
  const Graph graph = b.Build();
  StatusOr<CompiledSubprogram> chain = CompileGraph(graph);
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  ASSERT_EQ(chain->program.kernels.size(), 1u);
  const Graph& cg = chain->program.kernels[0].graph;
  StatusOr<CppKernel> chained = EmitCppKernel(chain->program.kernels[0]);
  ASSERT_TRUE(chained.ok()) << chained.status().ToString();
  const OpId add = FindOp(cg, BinaryKind::kAdd);
  ASSERT_GE(add, 0);
  EXPECT_EQ(cg.consumers(cg.op(add).output).size(), 2u);
  EXPECT_TRUE(StoresTensor(*chained, cg.op(add).output));
  EXPECT_FALSE(StoresTensor(*chained, cg.op(add).inputs[0]));
  ExpectJitMatchesInterpreter(graph, /*seed=*/43, SharedExecutor());
}

// reference_mode disables temporal slicing and fused elementwise chains;
// its output must still match the interpreter (it IS the unfused op
// stream), which anchors the fused-vs-unfused wall-clock benchmark.
TEST(CppCodegenTest, ReferenceModeMatchesInterpreter) {
  JitExecutorOptions options;
  options.cache.dir = UniqueTestDir("refmode");
  options.codegen.reference_mode = true;
  JitExecutor executor(options);
  Graph g = BuildMha(2, 16, 16, 8);
  ExpectJitMatchesInterpreter(g, /*seed=*/41, executor);
  EXPECT_GT(executor.stats().jit_runs, 0);
  EXPECT_EQ(executor.stats().fallbacks, 0);
}

}  // namespace
}  // namespace spacefusion
