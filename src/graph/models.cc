#include "src/graph/models.h"

#include "src/support/logging.h"
#include "src/support/string_util.h"

namespace spacefusion {

const char* ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kBert:
      return "Bert";
    case ModelKind::kAlbert:
      return "Albert";
    case ModelKind::kT5:
      return "T5";
    case ModelKind::kViT:
      return "ViT";
    case ModelKind::kLlama2:
      return "Llama2";
  }
  return "?";
}

StatusOr<ModelKind> ModelKindFromName(const std::string& name) {
  for (ModelKind kind : AllModelKinds()) {
    if (ToLower(ModelKindName(kind)) == ToLower(name)) {
      return kind;
    }
  }
  return InvalidArgument(StrCat("unknown model \"", name,
                                "\" (expected bert|albert|t5|vit|llama2)"));
}

std::int64_t ModelGraph::TotalFlops() const {
  std::int64_t flops = 0;
  for (const Subprogram& sub : subprograms) {
    flops += sub.graph.TotalFlops() * sub.repeat;
  }
  return flops;
}

ModelConfig GetModelConfig(ModelKind kind, std::int64_t batch, std::int64_t seq) {
  ModelConfig c;
  c.kind = kind;
  c.batch = batch;
  c.seq = seq;
  switch (kind) {
    case ModelKind::kBert:
      // bert-base-uncased
      c.name = "Bert";
      c.num_layers = 12;
      c.hidden = 768;
      c.heads = 12;
      c.ffn_dim = 3072;
      c.activation = UnaryKind::kGelu;
      break;
    case ModelKind::kAlbert:
      // albert-base-v2: same geometry as BERT-base but the single layer's
      // weights are shared, so every repetition is the *same* subprogram.
      c.name = "Albert";
      c.num_layers = 12;
      c.hidden = 768;
      c.heads = 12;
      c.ffn_dim = 3072;
      c.activation = UnaryKind::kGelu;
      break;
    case ModelKind::kT5:
      // t5-base: 12 encoder + 12 decoder layers, ReLU FFN.
      c.name = "T5";
      c.num_layers = 12;
      c.decoder_layers = 12;
      c.hidden = 768;
      c.heads = 12;
      c.ffn_dim = 3072;
      c.activation = UnaryKind::kRelu;
      break;
    case ModelKind::kViT: {
      // ViT-B/16: `seq` is the image side; patches of 16x16 plus class token.
      c.name = "ViT";
      c.num_layers = 12;
      c.hidden = 768;
      c.heads = 12;
      c.ffn_dim = 3072;
      c.activation = UnaryKind::kGelu;
      std::int64_t side = seq;
      c.seq = (side / 16) * (side / 16) + 1;
      break;
    }
    case ModelKind::kLlama2:
      // Llama2-7B.
      c.name = "Llama2";
      c.num_layers = 32;
      c.hidden = 4096;
      c.heads = 32;
      c.ffn_dim = 11008;
      c.activation = UnaryKind::kSigmoid;  // used inside SwiGLU
      c.norm = NormKind::kRmsNorm;
      c.gated_ffn = true;
      c.causal_mask = true;
      break;
  }
  return c;
}

namespace {

// tokens = batch*seq rows by a fixed feature column.
TensorLayout TokensByFixed(const char* name, std::int64_t fixed) {
  TensorLayout layout;
  layout.name = name;
  layout.dims.push_back({SubDim{DimAxis::kBatch, 1}, SubDim{DimAxis::kSeq, 1}});
  layout.dims.push_back({SubDim{DimAxis::kFixed, fixed}});
  return layout;
}

// bh = batch*heads, then seq, then head_dim.
TensorLayout BhSeqHead(const char* name, std::int64_t heads, std::int64_t head_dim) {
  TensorLayout layout;
  layout.name = name;
  layout.dims.push_back({SubDim{DimAxis::kBatch, 1}, SubDim{DimAxis::kFixed, heads}});
  layout.dims.push_back({SubDim{DimAxis::kSeq, 1}});
  layout.dims.push_back({SubDim{DimAxis::kFixed, head_dim}});
  return layout;
}

TensorLayout AttnMask(const char* name) {
  TensorLayout layout;
  layout.name = name;
  layout.dims.push_back({SubDim{DimAxis::kSeq, 1}});
  layout.dims.push_back({SubDim{DimAxis::kSeq, 1}});
  layout.attn_mask = true;
  return layout;
}

SubprogramLayout QkvLayout(const ModelConfig& c) {
  SubprogramLayout layout;
  layout.inputs.push_back(TokensByFixed("x", c.hidden));
  for (const char* which : {"q", "k", "v"}) {
    layout.outputs.push_back(TokensByFixed(which, c.hidden));
  }
  return layout;
}

SubprogramLayout MhaLayout(const ModelConfig& c) {
  SubprogramLayout layout;
  layout.inputs.push_back(BhSeqHead("query", c.heads, c.head_dim()));
  layout.inputs.push_back(BhSeqHead("key", c.heads, c.head_dim()));
  layout.inputs.push_back(BhSeqHead("value", c.heads, c.head_dim()));
  layout.inputs.push_back(AttnMask("mask"));
  layout.outputs.push_back(BhSeqHead("out", c.heads, c.head_dim()));
  return layout;
}

SubprogramLayout AttnOutLayout(const ModelConfig& c) {
  SubprogramLayout layout;
  layout.inputs.push_back(TokensByFixed("attn", c.hidden));
  layout.inputs.push_back(TokensByFixed("residual", c.hidden));
  layout.outputs.push_back(TokensByFixed("out", c.hidden));
  return layout;
}

SubprogramLayout FfnLayout(const ModelConfig& c) {
  SubprogramLayout layout;
  layout.inputs.push_back(TokensByFixed("x", c.hidden));
  layout.outputs.push_back(TokensByFixed("out", c.hidden));
  return layout;
}

// The zoo's subprogram order, shared by both builders: per encoder layer
// QKV projection, attention core, attention output + norm, FFN; per T5
// decoder layer QKV, causal self-attention, attention output, cross-
// attention (encoder keys/values, same seq length here), attention output,
// FFN. The repeat count carries the stack depth. With `layouts` (the
// bucketed factory) every attention core is masked — padded kv columns are
// neutralized through the mask tensor, so the graph structure is identical
// for every shape in the bucket — and each subprogram's padding layout is
// recorded in parallel.
void AppendSubprograms(const ModelConfig& c, ModelGraph* model,
                       std::vector<SubprogramLayout>* layouts) {
  const std::int64_t tokens = c.tokens();
  const std::int64_t bh = c.batch * c.heads;
  auto add = [&](Graph graph, int repeat, SubprogramLayout (*layout)(const ModelConfig&)) {
    model->subprograms.push_back({std::move(graph), repeat});
    if (layouts != nullptr) {
      layouts->push_back(layout(c));
    }
  };
  auto mha = [&](bool masked) {
    return BuildMha(bh, c.seq, c.seq, c.head_dim(), masked || layouts != nullptr);
  };
  auto ffn = [&]() { return BuildFfn(tokens, c.hidden, c.ffn_dim, c.activation, c.norm); };

  const int layers = c.num_layers;
  add(BuildQkvProj(tokens, c.hidden, c.hidden), layers, QkvLayout);
  add(mha(c.causal_mask), layers, MhaLayout);
  add(BuildAttnOut(tokens, c.hidden, c.norm), layers, AttnOutLayout);
  add(c.gated_ffn ? BuildSwigluFfn(tokens, c.hidden, c.ffn_dim) : ffn(), layers, FfnLayout);

  if (c.decoder_layers > 0) {
    const int decoder = c.decoder_layers;
    add(BuildQkvProj(tokens, c.hidden, c.hidden), decoder, QkvLayout);
    add(mha(/*masked=*/true), decoder, MhaLayout);
    add(BuildAttnOut(tokens, c.hidden, c.norm), decoder, AttnOutLayout);
    add(mha(/*masked=*/false), decoder, MhaLayout);
    add(BuildAttnOut(tokens, c.hidden, c.norm), decoder, AttnOutLayout);
    add(ffn(), decoder, FfnLayout);
  }
}

}  // namespace

ModelGraph BuildModel(const ModelConfig& config) {
  ModelGraph model;
  model.config = config;
  AppendSubprograms(config, &model, /*layouts=*/nullptr);
  return model;
}

BucketedModel BuildModelBucketed(ModelKind kind, const ShapeKey& shape,
                                 const BucketingPolicy& policy) {
  BucketedModel bm;
  bm.shape = shape;
  bm.bucket_key = policy.BucketFor(shape);
  bm.exact = GetModelConfig(kind, shape.batch, shape.seq);
  bm.bucket = GetModelConfig(kind, bm.bucket_key.batch, bm.bucket_key.seq);
  bm.model.config = bm.bucket;
  AppendSubprograms(bm.bucket, &bm.model, &bm.layouts);
  return bm;
}

std::vector<ModelKind> AllModelKinds() {
  return {ModelKind::kBert, ModelKind::kAlbert, ModelKind::kT5, ModelKind::kViT,
          ModelKind::kLlama2};
}

}  // namespace spacefusion
