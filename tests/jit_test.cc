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
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/codegen/cpp_codegen.h"
#include "src/codegen/jit_cache.h"
#include "src/core/model_runner.h"
#include "src/core/spacefusion.h"
#include "src/exec/jit_executor.h"
#include "src/graph/models.h"
#include "src/graph/subgraphs.h"
#include "src/support/file_util.h"
#include "tests/random_graph.h"

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
  static int counter = 0;
  return ::testing::TempDir() + "sf-jit-test-" + std::to_string(::getpid()) + "-" + tag + "-" +
         std::to_string(counter++);
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
  RunReference(g, &reference);

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
  // No runtime shape parameters: extents live in the source as literals.
  EXPECT_EQ(kernel->source.find("shape"), std::string::npos);
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

// reference_mode disables temporal slicing and fused elementwise chains;
// its output must still match the interpreter (it IS the unfused op
// stream), which anchors the fused-vs-unfused wall-clock benchmark.
TEST(CppCodegenTest, ReferenceModeMatchesInterpreter) {
  JitExecutorOptions options;
  options.cache.dir = UniqueTestDir("refmode");
  options.codegen.reference_mode = true;
  JitExecutor executor(options);
  Graph g = BuildMha(2, 16, 16, 8);
  ExpectJitMatchesInterpreter(g, /*seed=*/41, executor, /*tolerance=*/1e-4f);
  EXPECT_GT(executor.stats().jit_runs, 0);
  EXPECT_EQ(executor.stats().fallbacks, 0);
}

}  // namespace
}  // namespace spacefusion
