#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "src/graph/builder.h"
#include "src/graph/models.h"
#include "src/graph/subgraphs.h"
#include "src/support/string_util.h"

namespace spacefusion {
namespace {

TEST(BuilderTest, LinearShapesAndKinds) {
  GraphBuilder b("t");
  TensorId x = b.Input("x", Shape({8, 16}));
  TensorId w = b.Weight("w", Shape({16, 4}));
  TensorId bias = b.Weight("b", Shape({4}));
  TensorId out = b.Linear(x, w, bias);
  b.MarkOutput(out);
  Graph g = b.Build();
  EXPECT_EQ(g.tensor(out).shape, Shape({8, 4}));
  EXPECT_EQ(g.tensor(out).kind, TensorKind::kOutput);
  EXPECT_EQ(g.ops().size(), 2u);  // matmul + bias add
  EXPECT_TRUE(g.Validate().ok());
}

TEST(BuilderTest, SoftmaxDecomposition) {
  GraphBuilder b("t");
  TensorId x = b.Input("x", Shape({4, 8}));
  b.MarkOutput(b.Softmax(x));
  Graph g = b.Build();
  // max, sub, exp, sum, div.
  EXPECT_EQ(g.ops().size(), 5u);
  int reduces = 0;
  for (const Op& op : g.ops()) {
    if (op.kind == OpKind::kReduce) {
      ++reduces;
    }
  }
  EXPECT_EQ(reduces, 2);
}

TEST(BuilderTest, ConstantDoesNotPromoteDtype) {
  GraphBuilder b("t");
  TensorId x = b.Input("x", Shape({4, 8}));  // f16
  TensorId scaled = b.Scale(x, 0.5f);
  b.MarkOutput(scaled);
  Graph g = b.Build();
  EXPECT_EQ(g.tensor(scaled).dtype, DType::kF16);
}

TEST(GraphTest, ProducerConsumerLinks) {
  GraphBuilder b("t");
  TensorId x = b.Input("x", Shape({4}));
  TensorId y = b.Relu(x);
  TensorId z = b.Add(y, y);
  b.MarkOutput(z);
  Graph g = b.Build();
  EXPECT_EQ(g.producer(x), -1);
  EXPECT_EQ(g.producer(y), 0);
  // The add reads y twice: one consumer entry per input slot.
  ASSERT_EQ(g.consumers(y).size(), 2u);
  EXPECT_EQ(g.consumers(y)[0], 1);
  EXPECT_EQ(g.consumers(y)[1], 1);
}

TEST(GraphTest, ValidateCatchesBadShape) {
  Graph g("bad");
  TensorInfo a;
  a.name = "a";
  a.shape = Shape({2, 2});
  a.kind = TensorKind::kInput;
  TensorId ta = g.AddTensor(a);
  TensorInfo o;
  o.name = "o";
  o.shape = Shape({3, 3});  // wrong: unary preserves shape
  o.kind = TensorKind::kOutput;
  TensorId to = g.AddTensor(o);
  Op op;
  op.kind = OpKind::kUnary;
  op.inputs = {ta};
  op.output = to;
  op.name = "u";
  g.AddOp(op);
  EXPECT_FALSE(g.Validate().ok());
}

TEST(GraphTest, StructuralHashIgnoresNames) {
  Graph a = BuildMlp(2, 64, 32, 32);
  Graph b = BuildMlp(2, 64, 32, 32);
  b.set_name("renamed");
  EXPECT_EQ(a.StructuralHash(), b.StructuralHash());
  Graph c = BuildMlp(2, 64, 32, 16);
  EXPECT_NE(a.StructuralHash(), c.StructuralHash());
}

TEST(GraphTest, TopologyHashIgnoresShapes) {
  Graph a = BuildMha(4, 64, 64, 32);
  Graph b = BuildMha(8, 128, 128, 64);
  EXPECT_EQ(a.TopologyHash(), b.TopologyHash());
  EXPECT_NE(a.StructuralHash(), b.StructuralHash());
  Graph c = BuildMha(4, 64, 64, 32, /*masked=*/true);
  EXPECT_NE(a.TopologyHash(), c.TopologyHash());
}

TEST(GraphTest, FlopsOfMatmul) {
  GraphBuilder b("t");
  TensorId x = b.Input("x", Shape({8, 16}));
  TensorId w = b.Weight("w", Shape({16, 4}));
  b.MarkOutput(b.MatMul(x, w));
  Graph g = b.Build();
  EXPECT_EQ(g.TotalFlops(), 2 * 8 * 4 * 16);
}

TEST(SubgraphsTest, MlpLayerCount) {
  Graph g = BuildMlp(5, 128, 64, 64);
  int matmuls = 0;
  for (const Op& op : g.ops()) {
    matmuls += op.kind == OpKind::kMatMul ? 1 : 0;
  }
  EXPECT_EQ(matmuls, 5);
  EXPECT_TRUE(g.Validate().ok());
}

TEST(SubgraphsTest, MhaShapes) {
  Graph g = BuildMha(6, 32, 48, 16);
  ASSERT_EQ(g.OutputIds().size(), 1u);
  EXPECT_EQ(g.tensor(g.OutputIds()[0]).shape, Shape({6, 32, 16}));
  // Two matmuls (QK^T and PV).
  int matmuls = 0;
  for (const Op& op : g.ops()) {
    matmuls += op.kind == OpKind::kMatMul ? 1 : 0;
  }
  EXPECT_EQ(matmuls, 2);
}

TEST(SubgraphsTest, MaskedMhaHasMaskInput) {
  Graph g = BuildMha(2, 8, 8, 4, /*masked=*/true);
  EXPECT_EQ(g.InputIds().size(), 4u);  // q, k, v, mask
}

TEST(SubgraphsTest, LayerNormOpCount) {
  Graph g = BuildLayerNormGraph(16, 32);
  // mean, sub, square, mean, add-eps, sqrt, div, mul-gamma, add-beta.
  EXPECT_EQ(g.ops().size(), 9u);
}

TEST(SubgraphsTest, LstmCellBuilds) {
  Graph g = BuildLstmCell(8, 16, 32);
  EXPECT_TRUE(g.Validate().ok());
  EXPECT_EQ(g.tensor(g.OutputIds()[0]).shape, Shape({8, 32}));
}

TEST(SubgraphsTest, FfnAndSwiglu) {
  Graph ffn = BuildFfn(64, 128, 512, UnaryKind::kGelu, NormKind::kLayerNorm);
  EXPECT_TRUE(ffn.Validate().ok());
  Graph swiglu = BuildSwigluFfn(64, 128, 512);
  EXPECT_TRUE(swiglu.Validate().ok());
  int matmuls = 0;
  for (const Op& op : swiglu.ops()) {
    matmuls += op.kind == OpKind::kMatMul ? 1 : 0;
  }
  EXPECT_EQ(matmuls, 3);  // gate, up, down
}

class ModelBuildTest : public ::testing::TestWithParam<ModelKind> {};

TEST_P(ModelBuildTest, BuildsAndValidates) {
  ModelConfig config = GetModelConfig(GetParam(), /*batch=*/2, /*seq=*/128);
  ModelGraph model = BuildModel(config);
  EXPECT_FALSE(model.subprograms.empty());
  for (const Subprogram& sub : model.subprograms) {
    EXPECT_TRUE(sub.graph.Validate().ok()) << sub.graph.name();
    EXPECT_GE(sub.repeat, 1);
  }
  EXPECT_GT(model.TotalFlops(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelBuildTest, ::testing::ValuesIn(AllModelKinds()),
                         [](const ::testing::TestParamInfo<ModelKind>& info) {
                           return ModelKindName(info.param);
                         });

TEST(ModelTest, ModelKindFromNameAcceptsAnyCase) {
  for (ModelKind kind : AllModelKinds()) {
    const std::string name = ModelKindName(kind);
    std::string upper = name;
    for (char& c : upper) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    for (const std::string& spelling : {name, ToLower(name), upper}) {
      StatusOr<ModelKind> parsed = ModelKindFromName(spelling);
      ASSERT_TRUE(parsed.ok()) << spelling << ": " << parsed.status().ToString();
      EXPECT_EQ(parsed.value(), kind) << spelling;
    }
  }
  EXPECT_EQ(ModelKindFromName("gpt2").status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(ModelKindFromName("").ok());
}

TEST(ModelTest, ConfigsMatchPublishedArchitectures) {
  ModelConfig bert = GetModelConfig(ModelKind::kBert, 1, 128);
  EXPECT_EQ(bert.hidden, 768);
  EXPECT_EQ(bert.num_layers, 12);
  EXPECT_EQ(bert.heads, 12);
  EXPECT_EQ(bert.head_dim(), 64);

  ModelConfig llama = GetModelConfig(ModelKind::kLlama2, 1, 128);
  EXPECT_EQ(llama.hidden, 4096);
  EXPECT_EQ(llama.num_layers, 32);
  EXPECT_EQ(llama.ffn_dim, 11008);
  EXPECT_TRUE(llama.gated_ffn);
  EXPECT_EQ(static_cast<int>(llama.norm), static_cast<int>(NormKind::kRmsNorm));

  ModelConfig vit = GetModelConfig(ModelKind::kViT, 1, 224);
  EXPECT_EQ(vit.seq, 14 * 14 + 1);  // 224/16 patches + class token

  ModelConfig t5 = GetModelConfig(ModelKind::kT5, 1, 128);
  EXPECT_EQ(t5.decoder_layers, 12);
}

TEST(ModelTest, LlamaIsLarger) {
  ModelGraph bert = BuildModel(GetModelConfig(ModelKind::kBert, 1, 256));
  ModelGraph llama = BuildModel(GetModelConfig(ModelKind::kLlama2, 1, 256));
  EXPECT_GT(llama.TotalFlops(), 10 * bert.TotalFlops());
}

}  // namespace
}  // namespace spacefusion
