// Tests for CompilerEngine (src/core/engine): the cross-model structural
// program cache (hit/miss/collision semantics, options digest), equality of
// cached and cold-compiled results, thread-safety of concurrent compile
// requests against one engine, and library defaults that no environment
// variable can change.
#include <gtest/gtest.h>
#include <stdlib.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/engine.h"
#include "src/core/shape_dispatch.h"
#include "src/exec/jit_executor.h"
#include "src/exec/reference_executor.h"
#include "src/exec/schedule_executor.h"
#include "src/graph/builder.h"
#include "src/graph/models.h"
#include "src/graph/subgraphs.h"
#include "src/obs/metrics.h"
#include "src/obs/report.h"

namespace spacefusion {
namespace {

std::string ProgramFingerprint(const CompiledSubprogram& sub) {
  std::string fp;
  for (const SmgSchedule& kernel : sub.program.kernels) {
    fp += kernel.ToString();
  }
  return fp;
}

void ExpectSameReport(const ExecutionReport& a, const ExecutionReport& b) {
  EXPECT_EQ(a.time_us, b.time_us);
  EXPECT_EQ(a.kernel_count, b.kernel_count);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.dram_bytes, b.dram_bytes);
  EXPECT_EQ(a.l2_accesses, b.l2_accesses);
  EXPECT_EQ(a.l2_misses, b.l2_misses);
}

// Two single-subprogram "models" whose graphs have different tensor/op/graph
// names but identical structure: the second compile must be a structural
// cache hit with an estimate identical to the cold compile.
TEST(EngineCacheTest, CrossModelStructuralHit) {
  MetricsRegistry::Global().Reset();
  CompilerEngine engine{CompileOptions()};

  Graph first = BuildMha(4, 64, 64, 32);
  StatusOr<CompiledSubprogram> cold = engine.Compile(first);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(engine.cache_stats().hits, 0);
  EXPECT_EQ(engine.cache_stats().misses, 1);

  // Same constructor arguments produce the same structure and tensor names;
  // a different graph name must not matter. (Tensor names do: see
  // GraphsThatDifferOnlyInTensorNamesGetTheirOwnPrograms.)
  Graph second = BuildMha(4, 64, 64, 32);
  second.set_name("mha_from_another_model");

  StatusOr<CompiledSubprogram> warm = engine.Compile(second);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(engine.cache_stats().hits, 1);
  EXPECT_EQ(engine.cache_stats().misses, 1);
  EXPECT_EQ(engine.cache_stats().collisions, 0);
  EXPECT_EQ(engine.program_cache_size(), 1);

  // Acceptance pin: the cached result is indistinguishable from the cold one.
  ExpectSameReport(warm->estimate, cold->estimate);
  EXPECT_EQ(ProgramFingerprint(*warm), ProgramFingerprint(*cold));
  EXPECT_EQ(warm->tuning.simulated_tuning_seconds, cold->tuning.simulated_tuning_seconds);

  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_GE(snapshot.counter("engine.cache.hits"), 1);
  EXPECT_GE(snapshot.counter("engine.cache.misses"), 1);
}

// x·W1, ReLU, ·W2 with x 64x128 and W1, W2 128x128.
Graph TwoLayerMlp(const std::string& x, const std::string& w1, const std::string& w2) {
  GraphBuilder b("mlp");
  const TensorId in = b.Input(x, Shape({64, 128}));
  const TensorId first = b.Weight(w1, Shape({128, 128}));
  const TensorId second = b.Weight(w2, Shape({128, 128}));
  b.MarkOutput(b.MatMul(b.Relu(b.MatMul(in, first)), second));
  return b.Build();
}

void ExpectOutputsBitIdentical(const Graph& g, const TensorEnv& want, const TensorEnv& got,
                               const char* what) {
  for (TensorId out : g.OutputIds()) {
    const Tensor& w = want[static_cast<size_t>(out)];
    const Tensor& o = got[static_cast<size_t>(out)];
    ASSERT_TRUE(o.defined() && o.shape() == w.shape()) << what;
    EXPECT_EQ(std::memcmp(w.data(), o.data(), static_cast<size_t>(w.volume()) * sizeof(float)), 0)
        << what << ": " << g.tensor(out).name;
  }
}

// The executors hand the caller's tensors to kernels by name, so a graph
// that matches a cached one in everything but its tensor names is a counted
// collision that compiles its own program. Served the cached program, the
// renamed graph would miss its input "x", and the swapped one would run
// with its weights exchanged.
TEST(EngineCacheTest, GraphsThatDifferOnlyInTensorNamesGetTheirOwnPrograms) {
  const Graph original = TwoLayerMlp("x", "w1", "w2");
  const Graph renamed = [&original] {
    Graph g = original;
    for (const TensorInfo& t : original.tensors()) {
      g.tensor(t.id).name = "other." + t.name;
    }
    return g;
  }();
  const Graph swapped = TwoLayerMlp("x", "w2", "w1");
  ASSERT_EQ(renamed.StructuralHash(), original.StructuralHash());
  ASSERT_EQ(swapped.StructuralHash(), original.StructuralHash());

  CompilerEngine engine{CompileOptions()};
  ASSERT_TRUE(engine.Compile(original).ok());
  JitExecutor jit;
  for (const Graph* g : {&renamed, &swapped}) {
    StatusOr<CompiledSubprogram> served = engine.Compile(*g);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    CompilerEngine fresh_engine{CompileOptions()};
    StatusOr<CompiledSubprogram> fresh = fresh_engine.Compile(*g);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

    const TensorEnv inputs = MakeGraphInputs(*g, /*seed=*/7);
    TensorEnv want;
    TensorEnv got;
    ASSERT_TRUE(RunScheduledProgram(fresh->program, *g, inputs, &want).ok());
    Status run = RunScheduledProgram(served->program, *g, inputs, &got);
    ASSERT_TRUE(run.ok()) << run.ToString();
    ExpectOutputsBitIdentical(*g, want, got, "interpreter");
    ASSERT_TRUE(jit.RunProgram(fresh->program, *g, inputs, &want).ok());
    run = jit.RunProgram(served->program, *g, inputs, &got);
    ASSERT_TRUE(run.ok()) << run.ToString();
    ExpectOutputsBitIdentical(*g, want, got, "jit");
  }
  EXPECT_EQ(engine.cache_stats().hits, 0);
  EXPECT_EQ(engine.cache_stats().collisions, 2);
  EXPECT_EQ(engine.program_cache_size(), 3);
  EXPECT_EQ(jit.stats().fallbacks, 0);
}

TEST(EngineCacheTest, CrossModelHitThroughCompileModel) {
  CompilerEngine engine{CompileOptions()};

  // Model A lists the QKV projection twice (intra-model repeat); model B
  // lists it five times plus an MLP only it has.
  ModelGraph model_a;
  model_a.subprograms.push_back({BuildQkvProj(128, 256, 256), /*repeat=*/1});
  model_a.subprograms.push_back({BuildQkvProj(128, 256, 256), /*repeat=*/1});
  ModelGraph model_b;
  for (int i = 0; i < 5; ++i) {
    model_b.subprograms.push_back({BuildQkvProj(128, 256, 256), /*repeat=*/1});
  }
  model_b.subprograms.push_back({BuildMlp(1, 64, 64, 64), /*repeat=*/1});

  StatusOr<CompiledModel> a = engine.CompileModel(model_a);
  ASSERT_TRUE(a.ok());
  CompilerEngine::CacheStats after_a = engine.cache_stats();
  EXPECT_EQ(after_a.hits, 0);
  EXPECT_EQ(after_a.misses, 1);

  StatusOr<CompiledModel> b = engine.CompileModel(model_b);
  ASSERT_TRUE(b.ok());
  CompilerEngine::CacheStats after_b = engine.cache_stats();
  EXPECT_EQ(after_b.hits, 1);  // model B's QKV projection reuses model A's
  EXPECT_EQ(after_b.misses, 2);

  // The shared subprogram compiles to the same estimate in both models.
  ExpectSameReport(a->unique_subprograms[0].estimate, b->unique_subprograms[0].estimate);
  // Intra-model repeats stay a separate statistic from cross-model reuse.
  EXPECT_EQ(a->cache_hits, 1);
  EXPECT_EQ(b->cache_hits, 4);
}

TEST(EngineCacheTest, MissOnDifferentArchitecture) {
  CompilerEngine engine{CompileOptions()};
  Graph g = BuildMlp(2, 64, 64, 64);
  ASSERT_TRUE(engine.Compile(g).ok());

  CompileOptions volta{VoltaV100()};
  StatusOr<CompiledSubprogram> on_volta = engine.Compile(g, volta);
  ASSERT_TRUE(on_volta.ok());

  CompilerEngine::CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 2);  // same structure, different options digest
  EXPECT_EQ(engine.program_cache_size(), 2);
}

TEST(EngineCacheTest, MissOnDifferentOptionsDigest) {
  CompilerEngine engine{CompileOptions()};
  Graph g = BuildMlp(2, 64, 64, 64);
  ASSERT_TRUE(engine.Compile(g).ok());

  CompileOptions exhaustive;
  exhaustive.tuner.screen_top_k = 0;
  ASSERT_TRUE(engine.Compile(g, exhaustive).ok());
  EXPECT_EQ(engine.cache_stats().misses, 2);

  // Repeating either options flavor now hits its own entry.
  ASSERT_TRUE(engine.Compile(g).ok());
  ASSERT_TRUE(engine.Compile(g, exhaustive).ok());
  EXPECT_EQ(engine.cache_stats().hits, 2);
  EXPECT_EQ(engine.cache_stats().misses, 2);
}

TEST(EngineCacheTest, OptionsDigestIsStableAndSensitive) {
  // The default A100 options, with the environment-read fields pinned to
  // their unset defaults. Persisted .sfpc entries are keyed by this value,
  // so the encoding must not drift: the slots of deleted options keep
  // mixing the values those options always had.
  CompileOptions base(AmpereA100());
  base.verify = VerifyMode::kPhase;
  base.tuner.screen_top_k = -1;
  const std::uint64_t digest = CompileOptionsDigest(base);
  EXPECT_EQ(digest, 12007558611731448425ULL);

  // Every remaining field moves the digest.
  const std::vector<std::pair<const char*, std::function<void(CompileOptions*)>>> edits = {
      {"arch.name", [](CompileOptions* o) { o->arch.name += "'"; }},
      {"arch.num_sms", [](CompileOptions* o) { ++o->arch.num_sms; }},
      {"arch.fp16_tflops", [](CompileOptions* o) { o->arch.fp16_tflops *= 2; }},
      {"arch.max_threads_per_sm", [](CompileOptions* o) { ++o->arch.max_threads_per_sm; }},
      {"arch.max_blocks_per_sm", [](CompileOptions* o) { ++o->arch.max_blocks_per_sm; }},
      {"arch.smem_per_sm", [](CompileOptions* o) { ++o->arch.smem_per_sm; }},
      {"arch.smem_per_block_max", [](CompileOptions* o) { ++o->arch.smem_per_block_max; }},
      {"arch.regfile_per_sm", [](CompileOptions* o) { ++o->arch.regfile_per_sm; }},
      {"arch.reg_per_block_max", [](CompileOptions* o) { ++o->arch.reg_per_block_max; }},
      {"arch.l1_per_sm", [](CompileOptions* o) { ++o->arch.l1_per_sm; }},
      {"arch.l2_bytes", [](CompileOptions* o) { ++o->arch.l2_bytes; }},
      {"arch.dram_gbps", [](CompileOptions* o) { o->arch.dram_gbps *= 2; }},
      {"arch.l2_gbps", [](CompileOptions* o) { o->arch.l2_gbps *= 2; }},
      {"arch.cache_line_bytes", [](CompileOptions* o) { o->arch.cache_line_bytes *= 2; }},
      {"arch.l2_assoc", [](CompileOptions* o) { o->arch.l2_assoc *= 2; }},
      {"arch.launch_overhead_us", [](CompileOptions* o) { o->arch.launch_overhead_us *= 2; }},
      {"enable_temporal_slicing", [](CompileOptions* o) { o->enable_temporal_slicing = false; }},
      {"enable_auto_scheduling", [](CompileOptions* o) { o->enable_auto_scheduling = false; }},
      {"verify=off", [](CompileOptions* o) { o->verify = VerifyMode::kOff; }},
      {"verify=full", [](CompileOptions* o) { o->verify = VerifyMode::kFull; }},
      {"tuner.enable_early_quit", [](CompileOptions* o) { o->tuner.enable_early_quit = false; }},
      {"tuner.screen_top_k", [](CompileOptions* o) { o->tuner.screen_top_k = 0; }},
      {"shape_bucket", [](CompileOptions* o) { o->shape_bucket = "b1s64"; }},
  };
  for (const auto& [field, edit] : edits) {
    CompileOptions changed = base;
    edit(&changed);
    EXPECT_NE(CompileOptionsDigest(changed), digest) << field;
  }
  CompileOptions hopper = base;
  hopper.arch = HopperH100();
  EXPECT_NE(CompileOptionsDigest(hopper), digest);

  // A transfer prior reorders the modeled measurement, never the program.
  CompileOptions with_prior = base;
  with_prior.tuner.transfer_prior = [](const SmgSchedule&) {
    return std::vector<std::string>{"b64x64"};
  };
  EXPECT_EQ(CompileOptionsDigest(with_prior), digest);
}

// Forcing every graph onto one fingerprint bucket exercises the
// canonical-form comparison: structurally different graphs must not be
// served each other's programs, and the mismatches are counted.
TEST(EngineCacheTest, FingerprintCollisionFallsBackToCanonicalComparison) {
  MetricsRegistry::Global().Reset();
  EngineOptions options{CompileOptions()};
  options.fingerprint_fn = [](const Graph&) { return 42ULL; };
  CompilerEngine engine{options};

  Graph mha = BuildMha(4, 64, 64, 32);
  Graph mlp = BuildMlp(2, 64, 64, 64);

  StatusOr<CompiledSubprogram> cold_mha = engine.Compile(mha);
  ASSERT_TRUE(cold_mha.ok());
  StatusOr<CompiledSubprogram> cold_mlp = engine.Compile(mlp);
  ASSERT_TRUE(cold_mlp.ok());

  CompilerEngine::CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_GE(stats.collisions, 1);  // mlp walked past mha's entry
  EXPECT_EQ(engine.program_cache_size(), 2);  // both live in bucket 42

  // Both graphs still hit their own entries afterwards, with the right
  // programs.
  StatusOr<CompiledSubprogram> warm_mlp = engine.Compile(mlp);
  ASSERT_TRUE(warm_mlp.ok());
  StatusOr<CompiledSubprogram> warm_mha = engine.Compile(mha);
  ASSERT_TRUE(warm_mha.ok());
  EXPECT_EQ(engine.cache_stats().hits, 2);
  EXPECT_EQ(ProgramFingerprint(*warm_mlp), ProgramFingerprint(*cold_mlp));
  EXPECT_EQ(ProgramFingerprint(*warm_mha), ProgramFingerprint(*cold_mha));
  EXPECT_NE(ProgramFingerprint(*warm_mha), ProgramFingerprint(*warm_mlp));

  EXPECT_GE(MetricsRegistry::Global().Snapshot().counter("engine.cache.collisions"), 1);
}

// A model compile groups its repeated subprograms by canonical form, the
// confirmation the program cache uses: with every fingerprint colliding,
// Bert still compiles each distinct subprogram to its own program and
// estimates exactly as under the real fingerprint.
TEST(EngineCacheTest, FingerprintCollisionKeepsModelSubprogramsDistinct) {
  ModelGraph model = BuildModel(GetModelConfig(ModelKind::kBert, /*batch=*/1, /*seq=*/64));
  CompilerEngine reference{CompileOptions(AmpereA100())};
  StatusOr<CompiledModel> expected = reference.CompileModel(model);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  EngineOptions options{CompileOptions(AmpereA100())};
  options.fingerprint_fn = [](const Graph&) { return 42ULL; };
  CompilerEngine engine{options};
  StatusOr<CompiledModel> colliding = engine.CompileModel(model);
  ASSERT_TRUE(colliding.ok()) << colliding.status().ToString();

  ASSERT_EQ(colliding->unique_subprograms.size(), expected->unique_subprograms.size());
  EXPECT_EQ(colliding->cache_hits, expected->cache_hits);
  ExpectSameReport(colliding->total, expected->total);
  for (size_t i = 0; i < expected->unique_subprograms.size(); ++i) {
    EXPECT_EQ(ProgramFingerprint(colliding->unique_subprograms[i]),
              ProgramFingerprint(expected->unique_subprograms[i]));
  }
  EXPECT_EQ(colliding->sub_to_unique, expected->sub_to_unique);
}

// Determinism pin: an engine-cached compile equals a cold compile from a
// fresh engine bit-for-bit, across everything a caller can observe.
TEST(EngineCacheTest, CachedEqualsColdBitForBit) {
  CompilerEngine warm_engine{CompileOptions()};
  Graph g = BuildMha(8, 128, 128, 64);
  ASSERT_TRUE(warm_engine.Compile(g).ok());
  StatusOr<CompiledSubprogram> cached = warm_engine.Compile(g);
  ASSERT_TRUE(cached.ok());
  ASSERT_EQ(warm_engine.cache_stats().hits, 1);

  CompilerEngine cold_engine{CompileOptions()};
  StatusOr<CompiledSubprogram> cold = cold_engine.Compile(g);
  ASSERT_TRUE(cold.ok());

  EXPECT_EQ(ProgramFingerprint(*cached), ProgramFingerprint(*cold));
  ExpectSameReport(cached->estimate, cold->estimate);
  EXPECT_EQ(cached->tuning.simulated_tuning_seconds, cold->tuning.simulated_tuning_seconds);
  EXPECT_EQ(cached->tuning.configs_tried, cold->tuning.configs_tried);
  EXPECT_EQ(cached->tuning.configs_screened, cold->tuning.configs_screened);
  EXPECT_EQ(cached->tuning.configs_early_quit, cold->tuning.configs_early_quit);
  EXPECT_EQ(cached->candidate_programs, cold->candidate_programs);
  ASSERT_EQ(cached->kernels.size(), cold->kernels.size());
}

// Many threads, mixed duplicate and distinct graphs, one engine. Run under
// TSan by the concurrency CI job (test name contains "Engine").
TEST(EngineConcurrencyTest, ParallelCompileRequestsShareTheCache) {
  CompilerEngine engine{CompileOptions()};
  constexpr int kThreads = 8;

  std::vector<Graph> graphs;
  graphs.push_back(BuildMha(4, 64, 64, 32));
  graphs.push_back(BuildMlp(2, 64, 64, 64));
  graphs.push_back(BuildQkvProj(128, 256, 256));

  std::vector<std::string> fingerprints(kThreads);
  std::vector<Status> statuses(kThreads, Status::Ok());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const Graph& g = graphs[static_cast<size_t>(t) % graphs.size()];
      StatusOr<CompiledSubprogram> compiled = engine.Compile(g);
      if (compiled.ok()) {
        fingerprints[static_cast<size_t>(t)] = ProgramFingerprint(*compiled);
      } else {
        statuses[static_cast<size_t>(t)] = compiled.status();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(statuses[static_cast<size_t>(t)].ok())
        << statuses[static_cast<size_t>(t)].ToString();
    // Every thread compiling the same graph got the same program.
    EXPECT_EQ(fingerprints[static_cast<size_t>(t)],
              fingerprints[static_cast<size_t>(t) % graphs.size()]);
  }
  CompilerEngine::CacheStats stats = engine.cache_stats();
  EXPECT_EQ(engine.program_cache_size(), 3);
  // Racing threads may both miss the same graph before either inserts, so
  // misses can exceed the distinct-graph count; accounting still balances.
  EXPECT_GE(stats.misses, 3);
  EXPECT_EQ(stats.hits + stats.misses, kThreads);
}

TEST(EngineConcurrencyTest, ParallelCompileModelRequests) {
  CompilerEngine engine{CompileOptions()};
  constexpr int kThreads = 4;

  std::vector<StatusOr<CompiledModel>> results;
  results.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    results.push_back(NotFound("not run"));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ModelGraph model;
      model.subprograms.push_back({BuildMha(4, 64, 64, 32), /*repeat=*/2});
      model.subprograms.push_back({BuildMlp(2, 64, 64, 64), /*repeat=*/3});
      results[static_cast<size_t>(t)] = engine.CompileModel(model);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  for (int t = 1; t < kThreads; ++t) {
    ASSERT_TRUE(results[static_cast<size_t>(t)].ok());
    ExpectSameReport(results[static_cast<size_t>(t)]->total, results[0]->total);
    EXPECT_EQ(results[static_cast<size_t>(t)]->compile_time.tuning_s,
              results[0]->compile_time.tuning_s);
  }
  EXPECT_EQ(engine.program_cache_size(), 2);
}

// ---------------------------------------------------------------------------
// CompileReports: every request — cold, cache hit, failed, collided — emits
// one correctly attributed report to the engine's sink.

class CapturingReportSink : public ReportSink {
 public:
  void Emit(const CompileReport& report) override {
    std::lock_guard<std::mutex> lock(mu_);
    reports_.push_back(report);
  }

  std::vector<CompileReport> reports() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reports_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<CompileReport> reports_;
};

TEST(EngineReportTest, ColdThenCacheHitOutcomes) {
  CapturingReportSink sink;
  EngineOptions options{CompileOptions()};
  options.report_sink = &sink;
  CompilerEngine engine{options};

  Graph g = BuildMha(4, 64, 64, 32);
  StatusOr<CompiledSubprogram> cold = engine.Compile(g);
  ASSERT_TRUE(cold.ok());
  StatusOr<CompiledSubprogram> warm = engine.Compile(g);
  ASSERT_TRUE(warm.ok());

  std::vector<CompileReport> reports = sink.reports();
  ASSERT_EQ(reports.size(), 2u);
  const CompileReport& first = reports[0];
  const CompileReport& second = reports[1];

  EXPECT_EQ(first.outcome, "cold");
  EXPECT_FALSE(first.request_id.empty());
  EXPECT_EQ(first.graph_fingerprint, g.StructuralHash());
  EXPECT_EQ(first.options_digest, CompileOptionsDigest(engine.options()));
  EXPECT_FALSE(first.passes.empty());
  EXPECT_GT(first.PassWallMs("Tune"), 0.0);
  EXPECT_GT(first.wall_ms, 0.0);
  EXPECT_GT(first.configs_enumerated, 0);
  EXPECT_GT(first.configs_admitted, 0);
  EXPECT_GT(first.tuning_seconds, 0.0);
  EXPECT_GT(first.kernels, 0);
  EXPECT_GT(first.modeled_time_us, 0.0);
  EXPECT_FALSE(first.cache_collision);
  EXPECT_TRUE(first.status_message.empty());
  // The request id on the compiled program matches its report.
  EXPECT_EQ(cold->request_id, first.request_id);

  EXPECT_EQ(second.outcome, "cache_hit");
  EXPECT_NE(second.request_id, first.request_id);
  EXPECT_EQ(second.graph_fingerprint, first.graph_fingerprint);
  // Cache hits run no passes but still summarize the served program.
  EXPECT_TRUE(second.passes.empty());
  EXPECT_EQ(second.modeled_time_us, first.modeled_time_us);
  EXPECT_EQ(second.kernels, first.kernels);
  EXPECT_EQ(warm->request_id, second.request_id);

  // Reports round-trip through their JSON wire format.
  StatusOr<CompileReport> parsed = CompileReport::FromJson(first.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().request_id, first.request_id);
}

TEST(EngineReportTest, FailedCompileEmitsErrorReportWithDiagnostics) {
  // The SFV0103 idiom: a unary op whose output shape disagrees with its
  // input fails the BuildSmg entry verifier.
  Graph g("malformed");
  TensorInfo in;
  in.name = "x";
  in.shape = Shape({8, 16});
  in.kind = TensorKind::kInput;
  TensorId x = g.AddTensor(std::move(in));
  TensorInfo out;
  out.name = "y";
  out.shape = Shape({8, 8});
  out.kind = TensorKind::kOutput;
  TensorId y = g.AddTensor(std::move(out));
  Op op;
  op.kind = OpKind::kUnary;
  op.inputs = {x};
  op.output = y;
  op.name = "op";
  g.AddOp(std::move(op));

  CapturingReportSink sink;
  CompileOptions compile_options;
  compile_options.verify = VerifyMode::kPhase;
  EngineOptions options{compile_options};
  options.report_sink = &sink;
  CompilerEngine engine{options};

  StatusOr<CompiledSubprogram> compiled = engine.Compile(g);
  ASSERT_FALSE(compiled.ok());

  std::vector<CompileReport> reports = sink.reports();
  ASSERT_EQ(reports.size(), 1u);
  const CompileReport& report = reports[0];
  EXPECT_EQ(report.outcome, "error");
  EXPECT_NE(report.status_message.find("SFV0103"), std::string::npos) << report.status_message;
  ASSERT_FALSE(report.diagnostics.empty());
  EXPECT_EQ(report.diagnostics[0].code, "SFV0103");
  EXPECT_EQ(report.diagnostics[0].severity, "error");
  EXPECT_GE(report.verifier_errors, 1);
  EXPECT_GT(report.wall_ms, 0.0);
  // The report is the post-mortem: its pass timings end with the pass
  // whose entry verifier rejected the graph.
  ASSERT_FALSE(report.passes.empty());
  EXPECT_EQ(report.passes.back().pass, "BuildSmg");
}

TEST(EngineReportTest, VerifierWarningsReachTheReportOfASuccessfulCompile) {
  // SFV0109: two tensors share a name. A warning, so the compile succeeds,
  // and the finding must still leave it in the reports.
  GraphBuilder b("duplicate_name");
  b.MarkOutput(b.Add(b.Input("x", Shape({8, 16})), b.Input("x", Shape({8, 16}))));
  ModelGraph model;
  model.config.name = "duplicate_name";
  model.subprograms.push_back({b.Build(), /*repeat=*/1});

  for (VerifyMode mode : {VerifyMode::kPhase, VerifyMode::kFull}) {
    SCOPED_TRACE(VerifyModeName(mode));
    CapturingReportSink sink;
    CompileOptions compile_options;
    compile_options.verify = mode;
    EngineOptions options{compile_options};
    options.report_sink = &sink;
    CompilerEngine engine{options};

    StatusOr<CompiledModel> compiled = engine.CompileModel(model);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    std::vector<CompileReport> reports = sink.reports();
    ASSERT_EQ(reports.size(), 1u);
    // The per-request report and the model-level merge both carry it.
    for (const CompileReport* report : {&reports[0], &compiled->report}) {
      EXPECT_EQ(report->verifier_errors, 0);
      EXPECT_GE(report->verifier_warnings, 1);
      EXPECT_EQ(static_cast<int>(report->diagnostics.size()), report->verifier_warnings);
      bool found = false;
      for (const ReportDiagnostic& d : report->diagnostics) {
        found = found || (d.code == "SFV0109" && d.severity == "warning");
      }
      EXPECT_TRUE(found) << report->ToJson();
    }
  }
}

TEST(EngineReportTest, CacheCollisionIsFlaggedOnTheCollidingRequest) {
  CapturingReportSink sink;
  EngineOptions options{CompileOptions()};
  options.fingerprint_fn = [](const Graph&) { return 42ULL; };
  options.report_sink = &sink;
  CompilerEngine engine{options};

  ASSERT_TRUE(engine.Compile(BuildMha(4, 64, 64, 32)).ok());
  ASSERT_TRUE(engine.Compile(BuildMlp(2, 64, 64, 64)).ok());

  std::vector<CompileReport> reports = sink.reports();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_FALSE(reports[0].cache_collision);
  EXPECT_TRUE(reports[1].cache_collision);
  // The collision compiles fresh: still a cold outcome, not a hit.
  EXPECT_EQ(reports[1].outcome, "cold");
}

// The ISSUE acceptance gate: N threads compiling distinct graphs through
// one engine produce N reports, each attributed to the graph its thread
// compiled (by fingerprint) under a unique request id.
TEST(EngineReportTest, ConcurrentRequestsGetCorrectlyAttributedReports) {
  CapturingReportSink sink;
  EngineOptions options{CompileOptions()};
  options.report_sink = &sink;
  CompilerEngine engine{options};

  constexpr int kThreads = 4;
  std::vector<Graph> graphs;
  for (int t = 0; t < kThreads; ++t) {
    graphs.push_back(BuildMlp(2, 64 + 32 * t, 64, 64));  // structurally distinct
  }

  std::vector<std::string> request_ids(kThreads);
  std::vector<Status> statuses(kThreads, Status::Ok());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      StatusOr<CompiledSubprogram> compiled = engine.Compile(graphs[static_cast<size_t>(t)]);
      if (compiled.ok()) {
        request_ids[static_cast<size_t>(t)] = compiled->request_id;
      } else {
        statuses[static_cast<size_t>(t)] = compiled.status();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  std::vector<CompileReport> reports = sink.reports();
  ASSERT_EQ(reports.size(), static_cast<size_t>(kThreads));
  std::set<std::string> unique_ids;
  for (const CompileReport& report : reports) {
    unique_ids.insert(report.request_id);
  }
  EXPECT_EQ(unique_ids.size(), reports.size());

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(statuses[static_cast<size_t>(t)].ok())
        << statuses[static_cast<size_t>(t)].ToString();
    // The report carrying this thread's request id describes this thread's
    // graph — attribution never crosses requests.
    const CompileReport* mine = nullptr;
    for (const CompileReport& report : reports) {
      if (report.request_id == request_ids[static_cast<size_t>(t)]) {
        mine = &report;
      }
    }
    ASSERT_NE(mine, nullptr) << request_ids[static_cast<size_t>(t)];
    EXPECT_EQ(mine->graph_fingerprint, graphs[static_cast<size_t>(t)].StructuralHash());
    EXPECT_EQ(mine->outcome, "cold");
    EXPECT_FALSE(mine->passes.empty());
  }
}

// --- Persistent-cache admission (race analysis) ---------------------------

// A program the race analyzer rejects must never reach the on-disk cache:
// the compile itself still succeeds (the caller gets its program), but no
// entry is written and the rejection is counted.
TEST(EngineAdmissionTest, RacyProgramIsNeverPersisted) {
  const std::string cache_dir = testing::TempDir() + "/sf_engine_admission_cache";
  std::filesystem::remove_all(cache_dir);

  EngineOptions options{CompileOptions()};
  options.cache_dir = cache_dir;
  options.admission_analysis = [](const ScheduledProgram&, const Graph& graph) {
    DiagnosticReport report;
    report.AddError("SFV0601", "race", graph.name(), "injected write-write race");
    return report;
  };
  CompilerEngine engine(std::move(options));

  StatusOr<CompiledSubprogram> compiled = engine.Compile(BuildMlp(2, 64, 64, 64));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  EXPECT_EQ(engine.cache_stats().analysis_rejected, 1);
  int entries = 0;
  if (std::filesystem::exists(cache_dir)) {
    for (const auto& e : std::filesystem::directory_iterator(cache_dir)) {
      entries += e.is_regular_file() ? 1 : 0;
    }
  }
  EXPECT_EQ(entries, 0) << "racy program was written to the persistent cache";

  // A fresh engine on the same directory must compile cold: nothing to hit.
  EngineOptions warm_options{CompileOptions()};
  warm_options.cache_dir = cache_dir;
  CompilerEngine warm(std::move(warm_options));
  StatusOr<CompiledSubprogram> again = warm.Compile(BuildMlp(2, 64, 64, 64));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(warm.cache_stats().persistent_hits, 0);
  std::filesystem::remove_all(cache_dir);
}

// The default admission analysis passes clean programs through: the entry
// lands on disk and a restarted engine serves it as a persistent hit.
TEST(EngineAdmissionTest, CleanProgramPersistsAndWarmServes) {
  const std::string cache_dir = testing::TempDir() + "/sf_engine_admission_clean";
  std::filesystem::remove_all(cache_dir);

  {
    EngineOptions options{CompileOptions()};
    options.cache_dir = cache_dir;
    CompilerEngine engine(std::move(options));
    StatusOr<CompiledSubprogram> compiled = engine.Compile(BuildMlp(2, 64, 64, 64));
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    EXPECT_EQ(engine.cache_stats().analysis_rejected, 0);
  }

  EngineOptions options{CompileOptions()};
  options.cache_dir = cache_dir;
  CompilerEngine warm(std::move(options));
  StatusOr<CompiledSubprogram> served = warm.Compile(BuildMlp(2, 64, 64, 64));
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(warm.cache_stats().persistent_hits, 1);
  std::filesystem::remove_all(cache_dir);
}

// Every variable the library used to read for configuration (sf-compile
// still reads the last two), each with a value that would have changed a
// default. SPACEFUSION_TRACE only starts a trace capture and is not among
// them.
const std::pair<const char*, const char*> kConfigurationVariables[] = {
    {"SPACEFUSION_VERIFY", "full"},
    {"SPACEFUSION_SCREEN_TOPK", "0"},
    {"SPACEFUSION_DUMP_AFTER_PASS", "all"},
    {"SPACEFUSION_REPORT_DIR", nullptr},        // set to a scratch dir below
    {"SPACEFUSION_KERNEL_CACHE_DIR", nullptr},  // likewise
    {"SPACEFUSION_CXX", "/bin/false"},
    {"SPACEFUSION_CACHE_DIR", nullptr},  // likewise
    {"SPACEFUSION_SHAPE_BUCKETS", "48,96"},
};

// What a default-constructed caller gets.
struct Defaults {
  VerifyMode verify = VerifyMode::kOff;
  std::uint64_t digest = 0;
  std::string cache_dir;
  int screen_top_k = 0;
  std::string dispatch_policy;
  std::string kernel_cache_parent;
  bool kernel_cache_is_own = false;
};

Defaults ReadDefaults() {
  Defaults d;
  const CompileOptions compile;
  d.verify = compile.verify;
  d.digest = CompileOptionsDigest(compile);
  d.cache_dir = EngineOptions().cache_dir;
  d.screen_top_k = TunerOptions().screen_top_k;
  d.dispatch_policy = ShapeDispatchTable().policy().ToString();
  JitExecutor jit;
  const std::filesystem::path dir = jit.cache().dir();
  d.kernel_cache_parent = dir.parent_path().string();
  d.kernel_cache_is_own = dir.filename().string().rfind("sf-jit-", 0) == 0;
  return d;
}

TEST(ConfigurationTest, EnvironmentReachesNoLibraryDefault) {
  const std::string scratch =
      (std::filesystem::path(::testing::TempDir()) /
       ("sf-config-" + std::to_string(::getpid())))
          .string();
  std::vector<std::pair<std::string, std::optional<std::string>>> saved;
  for (const auto& [name, value] : kConfigurationVariables) {
    const char* old = std::getenv(name);
    saved.emplace_back(name, old != nullptr ? std::optional<std::string>(old) : std::nullopt);
    ::unsetenv(name);
  }
  const Defaults clean = ReadDefaults();
  for (const auto& [name, value] : kConfigurationVariables) {
    ::setenv(name, value != nullptr ? value : (scratch + "/" + name).c_str(), 1);
  }
  const Defaults configured = ReadDefaults();

  // A compile and a JIT run under the variables: no report, program cache
  // or kernel cache written where they point, no dump, and kernels built
  // with c++.
  ::testing::internal::CaptureStderr();
  CompilerEngine engine{EngineOptions()};
  const Graph g = TwoLayerMlp("x", "w1", "w2");
  StatusOr<CompiledSubprogram> compiled = engine.Compile(g);
  TensorEnv outputs;
  JitExecutor jit;
  const Status run = compiled.ok()
                         ? jit.RunProgram(compiled->program, g, MakeGraphInputs(g, 3), &outputs)
                         : compiled.status();
  const std::string dumped = ::testing::internal::GetCapturedStderr();

  for (const auto& [name, value] : saved) {
    if (value) {
      ::setenv(name.c_str(), value->c_str(), 1);
    } else {
      ::unsetenv(name.c_str());
    }
  }

  EXPECT_EQ(clean.verify, VerifyMode::kPhase);
  EXPECT_EQ(configured.verify, clean.verify);
  EXPECT_EQ(configured.digest, clean.digest);
  EXPECT_EQ(clean.cache_dir, "");
  EXPECT_EQ(configured.cache_dir, clean.cache_dir);
  EXPECT_EQ(clean.screen_top_k, -1);
  EXPECT_EQ(configured.screen_top_k, clean.screen_top_k);
  EXPECT_EQ(clean.dispatch_policy, BucketingPolicy::PowersOfTwo().ToString());
  EXPECT_EQ(configured.dispatch_policy, clean.dispatch_policy);
  EXPECT_TRUE(clean.kernel_cache_is_own);
  EXPECT_TRUE(configured.kernel_cache_is_own);
  EXPECT_EQ(configured.kernel_cache_parent, clean.kernel_cache_parent);

  ASSERT_TRUE(run.ok()) << run.ToString();
  EXPECT_EQ(jit.stats().fallbacks, 0);
  EXPECT_EQ(dumped.find("dump-after-pass"), std::string::npos) << dumped;
  EXPECT_FALSE(std::filesystem::exists(scratch)) << "a variable named a directory that was used";
  std::error_code ignored;
  std::filesystem::remove_all(scratch, ignored);
}

}  // namespace
}  // namespace spacefusion
