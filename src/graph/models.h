// End-to-end model zoo: the five Transformer models of the paper's Sec. 6.2
// evaluation, expressed as sequences of subprograms with repeat counts.
//
// Fusion scheduling only depends on graph topology and shapes, so models are
// built from their published architecture hyper-parameters with synthetic
// weights (substitution documented in DESIGN.md).
#ifndef SPACEFUSION_SRC_GRAPH_MODELS_H_
#define SPACEFUSION_SRC_GRAPH_MODELS_H_

#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/graph/shape_bucket.h"
#include "src/graph/subgraphs.h"
#include "src/support/status.h"

namespace spacefusion {

enum class ModelKind { kBert, kAlbert, kT5, kViT, kLlama2 };

const char* ModelKindName(ModelKind kind);

// Inverse of ModelKindName, case-insensitive ("bert", "BERT", "Llama2").
// An unknown name is INVALID_ARGUMENT.
StatusOr<ModelKind> ModelKindFromName(const std::string& name);

struct ModelConfig {
  ModelKind kind = ModelKind::kBert;
  std::string name;
  int num_layers = 12;
  std::int64_t hidden = 768;
  std::int64_t heads = 12;
  std::int64_t ffn_dim = 3072;
  std::int64_t batch = 1;
  std::int64_t seq = 128;
  UnaryKind activation = UnaryKind::kGelu;
  NormKind norm = NormKind::kLayerNorm;
  bool gated_ffn = false;       // Llama SwiGLU
  bool causal_mask = false;     // decoder-style attention
  int decoder_layers = 0;       // T5: extra decoder stack with cross-attention

  std::int64_t head_dim() const { return hidden / heads; }
  std::int64_t tokens() const { return batch * seq; }
};

// A subprogram plus how many times the model executes it. Identical
// repetitions are compiled once (paper Sec. 5, program pre-processing).
struct Subprogram {
  Graph graph;
  int repeat = 1;
};

struct ModelGraph {
  ModelConfig config;
  std::vector<Subprogram> subprograms;

  std::int64_t TotalFlops() const;
};

// Published architecture parameters for each model at (batch, seq).
// For ViT, `seq` is interpreted as the image side length in pixels
// (patch 16, +1 class token).
ModelConfig GetModelConfig(ModelKind kind, std::int64_t batch, std::int64_t seq);

// Expands a config into subprograms (QKV projection, per-head attention,
// attention output + norm, FFN + norm; cross-attention for T5 decoders).
ModelGraph BuildModel(const ModelConfig& config);

// All five evaluated models.
std::vector<ModelKind> AllModelKinds();

// ---- Shape-bucketed factory (dynamic shapes) -----------------------------

// A model built at its *bucket* shape, plus everything the runtime dispatch
// layer needs to serve the exact request shape from it: the exact and bucket
// configs and a per-subprogram padding layout. Unlike BuildModel, every
// attention core carries the additive mask input regardless of
// ModelConfig::causal_mask — masking is how padded key/value columns are
// neutralized, so the bucketed graphs are structurally mask-invariant and a
// causal vs. padding vs. no-op mask is purely a runtime tensor value.
struct BucketedModel {
  ShapeKey shape;        // the request shape (raw axis; image side for ViT)
  ShapeKey bucket_key;   // policy.BucketFor(shape)
  ModelConfig exact;     // config at the request shape (seq derived for ViT)
  ModelConfig bucket;    // config at the bucket shape
  ModelGraph model;      // graphs built at the bucket extents
  // Parallel to model.subprograms: positional padding rules for each
  // subprogram's inputs and outputs.
  std::vector<SubprogramLayout> layouts;

  AxisExtents ExactExtents() const { return {exact.batch, exact.seq}; }
  AxisExtents BucketExtents() const { return {bucket.batch, bucket.seq}; }
};

// Builds `kind` at the bucket that `policy` assigns to `shape`. With
// BucketingPolicy::Identity() this is the exact-shape reference compile the
// differential suite checks dispatch against. Graphs built by this factory
// for two shapes in the same bucket are structurally identical, which is
// what turns a new shape in a tuned bucket into a pure cache hit.
BucketedModel BuildModelBucketed(ModelKind kind, const ShapeKey& shape,
                                 const BucketingPolicy& policy);

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_GRAPH_MODELS_H_
