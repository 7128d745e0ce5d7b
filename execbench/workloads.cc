#include "execbench/workloads.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <functional>
#include <initializer_list>
#include <limits>
#include <utility>

#include "src/codegen/cpp_codegen.h"
#include "src/exec/reference_executor.h"
#include "src/graph/models.h"
#include "src/graph/subgraphs.h"

namespace execbench {
namespace {

using spacefusion::BucketedModel;
using spacefusion::BucketingPolicy;
using spacefusion::BucketRunOptions;
using spacefusion::CompilerEngine;
using spacefusion::EngineOptions;
using spacefusion::ExecBackend;
using spacefusion::JitCacheOptions;
using spacefusion::ModelKind;
using spacefusion::Shape;
using spacefusion::ShapeCompileResult;
using spacefusion::ShapeDispatchTable;
using spacefusion::ShapeKey;
using spacefusion::SmgSchedule;
using spacefusion::StatusOr;
using spacefusion::TensorId;
using spacefusion::TensorInfo;
using spacefusion::TensorKind;

constexpr int kLayers = 12;          // BERT-base depth: one weight set per layer
constexpr std::int64_t kBertSeq = 64;

std::uint64_t SubSeed(std::uint64_t seed, std::initializer_list<std::uint64_t> parts) {
  std::uint64_t state = seed;
  std::uint64_t out = SplitMix64(&state);
  for (std::uint64_t part : parts) {
    state ^= part + 0x632BE59BD9B4E019ULL;
    out = SplitMix64(&state);
  }
  return out;
}

size_t Id(TensorId id) { return static_cast<size_t>(id); }

using TensorList = std::vector<std::pair<TensorId, Tensor>>;

TensorList Constants(const Graph& graph) {
  TensorList constants;
  for (const TensorInfo& t : graph.tensors()) {
    if (t.kind == TensorKind::kConstant) {
      constants.emplace_back(t.id, Tensor::Full(t.shape, t.constant_value, t.dtype));
    }
  }
  return constants;
}

// A fresh engine (program cache in <dir>/programs) and kernel cache
// (<dir>/kernels): nothing an earlier deploy built is visible.
void OpenCaches(Deployment* d) {
  EngineOptions engine;
  engine.cache_dir = d->dir + "/programs";
  d->engine = std::make_unique<CompilerEngine>(engine);
  JitCacheOptions kernels;
  kernels.dir = d->dir + "/kernels";
  d->kernel_cache = std::make_unique<JitKernelCache>(kernels);
}

// Emits, builds and loads every kernel of every deployed program.
Status EmitAndLoad(Deployment* d, SpanRecorder* trace) {
  for (Program& program : d->programs) {
    for (const SmgSchedule& schedule : program.compiled->program.kernels) {
      StatusOr<CppKernel> emitted = [&] {
        ScopedSpan span(trace, "codegen.emit");
        return spacefusion::EmitCppKernel(schedule);
      }();
      if (!emitted.ok()) {
        return emitted.status();
      }
      StatusOr<JitKernelCache::Kernel> loaded = [&] {
        ScopedSpan span(trace, "jit_cache.get_or_build");
        return d->kernel_cache->GetOrBuild(emitted.value());
      }();
      if (!loaded.ok()) {
        return loaded.status();
      }
      d->counts.source_bytes += static_cast<std::int64_t>(emitted.value().source.size());
      program.kernels.push_back(std::move(emitted).value());
      program.loaded.push_back(loaded.value());
    }
    d->counts.programs += 1;
    d->counts.kernels += static_cast<std::int64_t>(program.kernels.size());
    d->counts.configs_enumerated += program.compiled->tuning.configs_enumerated;
    d->counts.configs_tried += program.compiled->tuning.configs_tried;
  }
  const JitKernelCache::Stats stats = d->kernel_cache->stats();
  d->counts.builds = stats.builds;
  d->counts.build_failures = stats.failures;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(d->kernel_cache->dir(), ec)) {
    if (entry.path().string().ends_with(".sfk.so")) {
      d->counts.so_bytes += static_cast<std::int64_t>(entry.file_size(ec));
    }
  }
  return Status::Ok();
}

// Deploy for workloads that compile each graph directly.
Status DeployDirect(Deployment* d, SpanRecorder* trace,
                    const std::function<std::vector<Graph>()>& build_graphs) {
  OpenCaches(d);
  {
    ScopedSpan span(trace, "graph.build");
    d->graphs = build_graphs();
  }
  for (const Graph& graph : d->graphs) {
    ScopedSpan span(trace, "engine.compile");
    StatusOr<CompiledSubprogram> compiled = d->engine->Compile(graph);
    if (!compiled.ok()) {
      return compiled.status();
    }
    d->compiled.push_back(std::move(compiled).value());
  }
  for (size_t i = 0; i < d->graphs.size(); ++i) {
    d->programs.push_back({d->graphs[i].name(), &d->graphs[i], &d->compiled[i], {}, {}});
  }
  return EmitAndLoad(d, trace);
}

// Records the worst per-element relative error of `out` against
// RunReference on the same inputs (the differential suite's metric; NaN
// counts as infinitely wrong).
void CheckAgainstReference(ReferenceCheck* check, const std::string& program, const Graph& graph,
                           const TensorEnv& in, const TensorEnv& out) {
  TensorEnv reference = in;
  spacefusion::RunReference(graph, &reference);
  double worst = 0.0;
  for (TensorId id : graph.OutputIds()) {
    const Tensor& got = out[Id(id)];
    const Tensor& want = reference[Id(id)];
    if (!got.defined() || got.shape() != want.shape()) {
      worst = std::numeric_limits<double>::infinity();
      continue;
    }
    for (std::int64_t i = 0; i < want.volume(); ++i) {
      const double diff = std::fabs(static_cast<double>(got.at(i)) - want.at(i)) /
                          (std::fabs(static_cast<double>(want.at(i))) + 1e-5);
      if (std::isnan(diff) || diff > worst) {
        worst = std::isnan(diff) ? std::numeric_limits<double>::infinity() : diff;
      }
    }
  }
  double& slot = check->max_rel_err[program];
  slot = std::max(slot, worst);
  if (!(worst < check->tolerance)) {
    ++check->mismatches;
  }
}

Status RunDirect(const Runtime& rt, const Program& program, const TensorEnv& in, TensorEnv* out) {
  {
    ScopedSpan span(rt.trace, "exec.program", rt.request);
    SF_RETURN_IF_ERROR(rt.exec->RunProgram(program.compiled->program, *program.graph, in, out));
  }
  if (rt.check != nullptr) {
    CheckAgainstReference(rt.check, program.name, *program.graph, in, *out);
  }
  return Status::Ok();
}

// RunBucketedSubprogram step by step, so pad, run and slice each get a span.
// The traced run serves through this; every output is compared bit for bit
// with RunBucketedSubprogram's result for the same request.
Status RunDispatchedTraced(const Runtime& rt, const ShapeDispatchTable::Entry& entry, size_t sub,
                           const BucketedModel& exact, const TensorEnv& in, TensorEnv* out) {
  ScopedSpan dispatch(rt.trace, "shape_dispatch.dispatch", rt.request);
  const BucketedModel& bucketed = entry.result.bucketed;
  const Graph& bucket_graph = bucketed.model.subprograms[sub].graph;
  const Graph& exact_graph = exact.model.subprograms[sub].graph;
  const spacefusion::SubprogramLayout& layout = bucketed.layouts[sub];
  TensorEnv bucket_env(bucket_graph.tensors().size());
  {
    ScopedSpan pad(rt.trace, "shape_dispatch.pad", rt.request);
    const std::vector<TensorId> inputs = bucket_graph.InputIds();
    for (size_t i = 0; i < inputs.size(); ++i) {
      SF_ASSIGN_OR_RETURN(bucket_env[Id(inputs[i])],
                          spacefusion::PadToBucket(layout.inputs[i], in[Id(inputs[i])],
                                                   exact.ExactExtents(),
                                                   bucketed.BucketExtents()));
    }
  }
  for (TensorId weight : bucket_graph.WeightIds()) {
    bucket_env[Id(weight)] = in[Id(weight)];
  }
  for (const TensorInfo& t : bucket_graph.tensors()) {
    if (t.kind == TensorKind::kConstant) {
      bucket_env[Id(t.id)] = Tensor::Full(t.shape, t.constant_value, t.dtype);
    }
  }
  const CompiledSubprogram& compiled =
      entry.result.compiled.unique_subprograms[entry.sub_to_unique[sub]];
  TensorEnv bucket_out;
  {
    ScopedSpan run(rt.trace, "exec.program", rt.request);
    SF_RETURN_IF_ERROR(
        rt.exec->RunProgram(compiled.program, bucket_graph, bucket_env, &bucket_out));
  }
  ScopedSpan slice(rt.trace, "shape_dispatch.slice", rt.request);
  const std::vector<TensorId> outputs = bucket_graph.OutputIds();
  out->assign(exact_graph.tensors().size(), Tensor());
  for (size_t i = 0; i < outputs.size(); ++i) {
    SF_ASSIGN_OR_RETURN((*out)[Id(outputs[i])],
                        spacefusion::SliceToExact(layout.outputs[i], bucket_out[Id(outputs[i])],
                                                  exact.ExactExtents(), bucketed.BucketExtents()));
  }
  return Status::Ok();
}

// ---- BERT-base encoder layer ------------------------------------------------

// The four subprograms of one layer (QKV, attention, attn-out + LayerNorm,
// FFN + LayerNorm) at one exact shape, with ids and constants resolved once.
struct LayerGraphs {
  std::array<const Graph*, 4> sub{};
  std::array<std::vector<TensorId>, 4> inputs;
  std::array<std::vector<TensorId>, 4> outputs;
  std::array<TensorList, 4> constants;
};

LayerGraphs ResolveLayer(const spacefusion::ModelGraph& model) {
  LayerGraphs layer;
  for (size_t s = 0; s < 4; ++s) {
    const Graph& graph = model.subprograms[s].graph;
    layer.sub[s] = &graph;
    layer.inputs[s] = graph.InputIds();
    layer.outputs[s] = graph.OutputIds();
    layer.constants[s] = Constants(graph);
  }
  return layer;
}

// Weights of one layer's four subprograms, by graph tensor id. Weight
// shapes do not depend on seq, so one set serves every shape.
using LayerWeights = std::array<TensorList, 4>;

std::vector<LayerWeights> MakeEncoderWeights(std::uint64_t seed, const LayerGraphs& layer) {
  std::vector<LayerWeights> weights(kLayers);
  for (int l = 0; l < kLayers; ++l) {
    for (size_t s = 0; s < 4; ++s) {
      for (TensorId id : layer.sub[s]->WeightIds()) {
        const TensorInfo& t = layer.sub[s]->tensor(id);
        weights[static_cast<size_t>(l)][s].emplace_back(
            id, Tensor::Random(t.shape, SubSeed(seed, {1, static_cast<std::uint64_t>(l), s,
                                                       static_cast<std::uint64_t>(id)}),
                               t.dtype));
      }
    }
  }
  return weights;
}

// [seq, heads*d] -> [heads, seq, d]
Tensor SplitHeads(const Tensor& t, const Shape& to, spacefusion::DType dtype) {
  const std::int64_t heads = to.dim(0);
  const std::int64_t seq = to.dim(1);
  const std::int64_t d = to.dim(2);
  Tensor out(to, dtype);
  const float* src = t.data();
  float* dst = out.data();
  for (std::int64_t h = 0; h < heads; ++h) {
    for (std::int64_t s = 0; s < seq; ++s) {
      std::copy_n(src + s * heads * d + h * d, d, dst + (h * seq + s) * d);
    }
  }
  return out;
}

// [heads, seq, d] -> [seq, heads*d]
Tensor MergeHeads(const Tensor& t, const Shape& to, spacefusion::DType dtype) {
  const std::int64_t heads = t.shape().dim(0);
  const std::int64_t seq = t.shape().dim(1);
  const std::int64_t d = t.shape().dim(2);
  Tensor out(to, dtype);
  const float* src = t.data();
  float* dst = out.data();
  for (std::int64_t h = 0; h < heads; ++h) {
    for (std::int64_t s = 0; s < seq; ++s) {
      std::copy_n(src + (h * seq + s) * d, d, dst + s * heads * d + h * d);
    }
  }
  return out;
}

using SubRunner = std::function<Status(size_t sub, const TensorEnv& in, TensorEnv* out)>;

// One encoder layer forward on x [seq, hidden]; `mask` feeds the masked
// attention of bucketed graphs (null for unmasked ones).
Status EncoderLayer(const LayerGraphs& g, const LayerWeights& w, const Tensor& x,
                    const Tensor* mask, const SubRunner& run, Tensor* y) {
  auto env_for = [&](size_t s) {
    TensorEnv env(g.sub[s]->tensors().size());
    for (const auto& [id, t] : w[s]) {
      env[Id(id)] = t;
    }
    for (const auto& [id, t] : g.constants[s]) {
      env[Id(id)] = t;
    }
    return env;
  };
  TensorEnv out;
  TensorEnv env = env_for(0);
  env[Id(g.inputs[0][0])] = x;
  SF_RETURN_IF_ERROR(run(0, env, &out));
  const TensorEnv qkv = std::move(out);

  env = env_for(1);
  for (size_t i = 0; i < 3; ++i) {
    const TensorInfo& info = g.sub[1]->tensor(g.inputs[1][i]);
    env[Id(g.inputs[1][i])] = SplitHeads(qkv[Id(g.outputs[0][i])], info.shape, info.dtype);
  }
  if (mask != nullptr) {
    env[Id(g.inputs[1][3])] = *mask;
  }
  SF_RETURN_IF_ERROR(run(1, env, &out));
  const TensorInfo& attn_info = g.sub[2]->tensor(g.inputs[2][0]);
  const Tensor attn = MergeHeads(out[Id(g.outputs[1][0])], attn_info.shape, attn_info.dtype);

  env = env_for(2);
  env[Id(g.inputs[2][0])] = attn;
  env[Id(g.inputs[2][1])] = x;
  SF_RETURN_IF_ERROR(run(2, env, &out));
  const Tensor hidden = out[Id(g.outputs[2][0])];

  env = env_for(3);
  env[Id(g.inputs[3][0])] = hidden;
  SF_RETURN_IF_ERROR(run(3, env, &out));
  *y = out[Id(g.outputs[3][0])];
  return Status::Ok();
}

std::int64_t ModelFlops(const spacefusion::ModelGraph& model) {
  std::int64_t flops = 0;
  for (const spacefusion::Subprogram& sub : model.subprograms) {
    flops += sub.graph.TotalFlops();
  }
  return flops;
}

std::vector<std::string> ModelProgramNames(const spacefusion::ModelGraph& model) {
  std::vector<std::string> names;
  for (const spacefusion::Subprogram& sub : model.subprograms) {
    names.push_back(sub.graph.name());
  }
  return names;
}

// ---- Workloads -------------------------------------------------------------

std::vector<Graph> LnMhaGraphs() {
  std::vector<Graph> graphs;
  graphs.push_back(spacefusion::BuildLayerNormGraph(/*m=*/2048, /*n=*/2048));
  graphs.push_back(spacefusion::BuildMha(/*batch_heads=*/12, /*seq_q=*/256, /*seq_kv=*/256,
                                         /*head_dim=*/64));
  return graphs;
}

class LnMha : public Workload {
 public:
  explicit LnMha(std::uint64_t seed) {
    std::vector<Graph> graphs = LnMhaGraphs();
    for (size_t p = 0; p < graphs.size(); ++p) {
      inputs_.push_back(spacefusion::MakeGraphInputs(graphs[p], SubSeed(seed, {2, p})));
      flops_ += graphs[p].TotalFlops();
      names_.push_back(graphs[p].name());
    }
  }

  Status Deploy(Deployment* d, SpanRecorder* trace) const override {
    return DeployDirect(d, trace, LnMhaGraphs);
  }
  size_t cycle() const override { return 1; }

  Status Serve(size_t slot, const Runtime& rt, std::vector<Tensor>* outputs) const override {
    outputs->clear();
    for (size_t p = 0; p < inputs_.size(); ++p) {
      const Program& program = rt.deploy->programs[p];
      TensorEnv out;
      SF_RETURN_IF_ERROR(RunDirect(rt, program, inputs_[p], &out));
      for (TensorId id : program.graph->OutputIds()) {
        outputs->push_back(out[Id(id)]);
      }
    }
    return Status::Ok();
  }

  std::vector<size_t> CheckSlots() const override { return {0}; }
  std::int64_t UsefulFlops(size_t slot) const override { return flops_; }
  std::vector<std::string> ProgramsOf(size_t slot) const override { return names_; }

 private:
  std::vector<TensorEnv> inputs_;
  std::int64_t flops_ = 0;
  std::vector<std::string> names_;
};

spacefusion::ModelGraph BertModel() {
  return spacefusion::BuildModel(spacefusion::GetModelConfig(ModelKind::kBert, 1, kBertSeq));
}

class BertLayers : public Workload {
 public:
  explicit BertLayers(std::uint64_t seed) : model_(BertModel()), layer_(ResolveLayer(model_)) {
    weights_ = MakeEncoderWeights(seed, layer_);
    const Shape x_shape = layer_.sub[0]->tensor(layer_.inputs[0][0]).shape;
    for (int slot = 0; slot < kLayers; ++slot) {
      x_.push_back(Tensor::Random(x_shape, SubSeed(seed, {3, static_cast<std::uint64_t>(slot)})));
    }
    flops_ = ModelFlops(model_);
    names_ = ModelProgramNames(model_);
  }

  Status Deploy(Deployment* d, SpanRecorder* trace) const override {
    return DeployDirect(d, trace, [] {
      std::vector<Graph> graphs;
      for (spacefusion::Subprogram& sub : BertModel().subprograms) {
        graphs.push_back(std::move(sub.graph));
      }
      return graphs;
    });
  }
  size_t cycle() const override { return kLayers; }

  Status Serve(size_t slot, const Runtime& rt, std::vector<Tensor>* outputs) const override {
    const SubRunner run = [&rt](size_t sub, const TensorEnv& in, TensorEnv* out) {
      return RunDirect(rt, rt.deploy->programs[sub], in, out);
    };
    outputs->assign(1, Tensor());
    return EncoderLayer(layer_, weights_[slot], x_[slot], nullptr, run, &(*outputs)[0]);
  }

  std::vector<size_t> CheckSlots() const override { return {0}; }
  std::int64_t UsefulFlops(size_t slot) const override { return flops_; }
  std::vector<std::string> ProgramsOf(size_t slot) const override { return names_; }

 private:
  spacefusion::ModelGraph model_;
  LayerGraphs layer_;
  std::vector<LayerWeights> weights_;
  std::vector<Tensor> x_;
  std::int64_t flops_ = 0;
  std::vector<std::string> names_;
};

class BertShapeMix : public Workload {
 public:
  // Two full 12-layer forwards per cycle, so each layer's weights serve
  // two different shapes.
  static constexpr size_t kCycle = 2 * kLayers;
  static constexpr std::int64_t kMinSeq = 9;

  explicit BertShapeMix(std::uint64_t seed)
      : requests_(LogUniformShapeRequests(seed, kCycle, kMinSeq, kBertSeq, kLayers)) {
    const BucketingPolicy pow2 = BucketingPolicy::PowersOfTwo();
    for (const ShapeRequest& r : requests_) {
      if (exact_.count(r.seq) != 0) {
        continue;
      }
      const ShapeKey shape{1, r.seq};
      exact_.emplace(r.seq,
                     BuildModelBucketed(ModelKind::kBert, shape, BucketingPolicy::Identity()));
      layers_.emplace(r.seq, ResolveLayer(exact_.at(r.seq).model));
      masks_.emplace(r.seq, Tensor::Zeros(Shape({r.seq, r.seq})));
      const BucketedModel bucket = BuildModelBucketed(ModelKind::kBert, shape, pow2);
      useful_flops_[r.seq] = ModelFlops(exact_.at(r.seq).model);
      executed_flops_[r.seq] = ModelFlops(bucket.model);
      programs_[r.seq] = ModelProgramNames(bucket.model);
      seqs_.push_back(r.seq);
    }
    weights_ = MakeEncoderWeights(seed, layers_.begin()->second);
    for (size_t i = 0; i < requests_.size(); ++i) {
      const LayerGraphs& layer = layers_.at(requests_[i].seq);
      x_.push_back(Tensor::Random(layer.sub[0]->tensor(layer.inputs[0][0]).shape,
                                  SubSeed(seed, {4, i})));
    }
  }

  Status Deploy(Deployment* d, SpanRecorder* trace) const override {
    OpenCaches(d);
    const BucketingPolicy pow2 = BucketingPolicy::PowersOfTwo();
    d->table = std::make_unique<ShapeDispatchTable>(pow2);
    {
      ScopedSpan span(trace, "graph.build");
      for (std::int64_t seq : seqs_) {
        d->exact_models.emplace(seq, BuildModelBucketed(ModelKind::kBert, ShapeKey{1, seq},
                                                        BucketingPolicy::Identity()));
      }
    }
    // Every exact shape the traffic carries, in order of first arrival: the
    // first shape of a bucket compiles it cold (seeded from the nearest
    // compiled bucket), later ones are bucket hits.
    for (std::int64_t seq : seqs_) {
      StatusOr<ShapeCompileResult> result = [&] {
        ScopedSpan span(trace, "engine.compile");
        return d->engine->CompileModelForShape(ModelKind::kBert, ShapeKey{1, seq},
                                               d->engine->options(), pow2);
      }();
      if (!result.ok()) {
        return result.status();
      }
      d->counts.transfer_seeded += result.value().transfer_seeded;
      if (d->table->EntryFor(result.value().bucketed.bucket_key) == nullptr) {
        SF_RETURN_IF_ERROR(d->table->Add(std::move(result).value()));
      }
    }
    d->counts.bucket_hits = d->engine->cache_stats().bucket_hits;
    for (const std::string& label : d->table->Buckets()) {
      SF_ASSIGN_OR_RETURN(ShapeKey bucket, spacefusion::ParseShapeLabel(label));
      const ShapeDispatchTable::Entry* entry = d->table->EntryFor(bucket);
      for (size_t s = 0; s < entry->sub_to_unique.size(); ++s) {
        const Graph& graph = entry->result.bucketed.model.subprograms[s].graph;
        d->programs.push_back(
            {graph.name(), &graph,
             &entry->result.compiled.unique_subprograms[entry->sub_to_unique[s]], {}, {}});
      }
    }
    return EmitAndLoad(d, trace);
  }
  size_t cycle() const override { return kCycle; }

  Status Serve(size_t slot, const Runtime& rt, std::vector<Tensor>* outputs) const override {
    const ShapeRequest& request = requests_[slot];
    const ShapeDispatchTable::Entry* entry = rt.deploy->table->Route(ShapeKey{1, request.seq});
    if (entry == nullptr) {
      return spacefusion::NotFound("no bucket serves seq " + std::to_string(request.seq));
    }
    const BucketedModel& exact = rt.deploy->exact_models.at(request.seq);
    const SubRunner run = [&](size_t sub, const TensorEnv& in, TensorEnv* out) {
      if (rt.trace != nullptr) {
        SF_RETURN_IF_ERROR(RunDispatchedTraced(rt, *entry, sub, exact, in, out));
      } else {
        SF_RETURN_IF_ERROR(spacefusion::RunBucketedSubprogram(
            *entry, sub, exact, in, out, BucketRunOptions{ExecBackend::kJit, rt.exec}));
      }
      if (rt.check != nullptr) {
        CheckAgainstReference(rt.check, entry->result.bucketed.model.subprograms[sub].graph.name(),
                              exact.model.subprograms[sub].graph, in, *out);
      }
      return Status::Ok();
    };
    outputs->assign(1, Tensor());
    return EncoderLayer(layers_.at(request.seq), weights_[static_cast<size_t>(request.layer)],
                        x_[slot], &masks_.at(request.seq), run, &(*outputs)[0]);
  }

  std::vector<size_t> CheckSlots() const override {
    const BucketingPolicy pow2 = BucketingPolicy::PowersOfTwo();
    std::vector<size_t> slots;
    std::vector<std::int64_t> buckets;
    for (size_t i = 0; i < requests_.size(); ++i) {
      const std::int64_t bucket = pow2.BucketFor(ShapeKey{1, requests_[i].seq}).seq;
      if (std::find(buckets.begin(), buckets.end(), bucket) == buckets.end()) {
        buckets.push_back(bucket);
        slots.push_back(i);
      }
    }
    return slots;
  }
  std::int64_t UsefulFlops(size_t slot) const override {
    return useful_flops_.at(requests_[slot].seq);
  }
  std::int64_t ExecutedFlops(size_t slot) const override {
    return executed_flops_.at(requests_[slot].seq);
  }
  std::vector<std::string> ProgramsOf(size_t slot) const override {
    return programs_.at(requests_[slot].seq);
  }

 private:
  std::vector<ShapeRequest> requests_;
  std::vector<std::int64_t> seqs_;  // distinct, in order of first arrival
  std::map<std::int64_t, BucketedModel> exact_;
  std::map<std::int64_t, LayerGraphs> layers_;
  std::map<std::int64_t, Tensor> masks_;  // all-zero: no key is masked
  std::map<std::int64_t, std::int64_t> useful_flops_;
  std::map<std::int64_t, std::int64_t> executed_flops_;
  std::map<std::int64_t, std::vector<std::string>> programs_;
  std::vector<LayerWeights> weights_;
  std::vector<Tensor> x_;
};

}  // namespace

const Program* Deployment::FindProgram(const std::string& name) const {
  for (const Program& program : programs) {
    if (program.name == name) {
      return &program;
    }
  }
  return nullptr;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed) {
  if (name == "ln_mha") {
    return std::make_unique<LnMha>(seed);
  }
  if (name == "bert_layers") {
    return std::make_unique<BertLayers>(seed);
  }
  if (name == "bert_shape_mix") {
    return std::make_unique<BertShapeMix>(seed);
  }
  return nullptr;
}

}  // namespace execbench
