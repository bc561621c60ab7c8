// Model-graph tests: shape inference, float execution, and float-vs-quantized
// agreement for every zoo model.
#include <gtest/gtest.h>

#include <cmath>

#include "src/layers/quant_executor.h"
#include "src/model/float_executor.h"
#include "src/model/model_builder.h"
#include "src/model/shape_inference.h"
#include "src/model/zoo.h"

namespace zkml {
namespace {

TEST(ShapeInferenceTest, ConvAndPool) {
  ModelBuilder mb("t", Shape({8, 8, 3}), QuantParams{}, 1);
  int t = mb.Conv2D(mb.input(), 4, 3, 1, 1);
  EXPECT_EQ(mb.shape(t), Shape({8, 8, 4}));
  t = mb.Conv2D(t, 8, 3, 2, 0);
  EXPECT_EQ(mb.shape(t), Shape({3, 3, 8}));
  t = mb.MaxPool(t, 3);
  EXPECT_EQ(mb.shape(t), Shape({1, 1, 8}));
  t = mb.Reshape(t, Shape({8}));
  t = mb.FullyConnected(t, 5);
  EXPECT_EQ(mb.shape(t), Shape({5}));
}

TEST(ShapeInferenceTest, AttentionShapes) {
  ModelBuilder mb("t", Shape({4, 8}), QuantParams{}, 1);
  int q = mb.FullyConnected(mb.input(), 8);
  EXPECT_EQ(mb.shape(q), Shape({4, 8}));
  int qh = mb.Transpose(mb.Reshape(q, Shape({4, 2, 4})), {1, 0, 2});
  EXPECT_EQ(mb.shape(qh), Shape({2, 4, 4}));
  int scores = mb.BatchMatMul(qh, qh, true);
  EXPECT_EQ(mb.shape(scores), Shape({2, 4, 4}));
  int ctx = mb.BatchMatMul(scores, qh, false);
  EXPECT_EQ(mb.shape(ctx), Shape({2, 4, 4}));
}

TEST(FloatExecutorTest, TinyConvByHand) {
  // 2x2 input, 2x2 kernel, one channel: output = sum of elementwise products.
  ModelBuilder mb("t", Shape({2, 2, 1}), QuantParams{}, 7);
  int t = mb.Conv2D(mb.input(), 1, 2, 1, 0);
  Model m = mb.Finish(t);
  // Overwrite weights deterministically.
  for (int64_t i = 0; i < 4; ++i) {
    m.weights[0].flat(i) = static_cast<float>(i + 1);
  }
  m.weights[1].flat(0) = 0.5f;
  Tensor<float> in(Shape({2, 2, 1}), {1.0f, 2.0f, 3.0f, 4.0f});
  Tensor<float> out = RunFloat(m, in);
  EXPECT_EQ(out.shape(), Shape({1, 1, 1}));
  EXPECT_FLOAT_EQ(out.flat(0), 1 + 4 + 9 + 16 + 0.5f);
}

TEST(FloatExecutorTest, SoftmaxRowsSumToOne) {
  ModelBuilder mb("t", Shape({3, 4}), QuantParams{}, 8);
  Model m = mb.Finish(mb.Softmax(mb.input()));
  Tensor<float> in = SyntheticInput(m, 3);
  Tensor<float> out = RunFloat(m, in);
  for (int64_t r = 0; r < 3; ++r) {
    float sum = 0;
    for (int64_t c = 0; c < 4; ++c) {
      sum += out.at({r, c});
      EXPECT_GE(out.at({r, c}), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(ZooTest, ModelsBuildAndReportStats) {
  const std::vector<Model> models = AllZooModels();
  ASSERT_EQ(models.size(), 8u);
  for (const Model& m : models) {
    EXPECT_GT(m.NumParameters(), 0) << m.name;
    EXPECT_GT(m.ApproxFlops(), 0) << m.name;
    EXPECT_FALSE(m.ops.empty()) << m.name;
  }
  // GPT-2 and recommenders exercise the gadgets prior work lacks.
  EXPECT_TRUE(MakeGpt2Lite().NeedsMax());
  EXPECT_TRUE(MakeGpt2Lite().NeedsVarDiv());
  EXPECT_TRUE(MakeMaskNet().UsedNonlinFns().count(NonlinFn::kRsqrt) > 0);
}

TEST(ZooTest, FindZooModelNamesEveryModelAndRejectsTheRest) {
  // Every zoo model, lstm included, is found under its own name.
  std::vector<Model> models = AllZooModels();
  models.push_back(MakeLstmLite());
  for (const Model& m : models) {
    const StatusOr<Model> found = FindZooModel(m.name);
    ASSERT_TRUE(found.ok()) << found.status().ToString();
    EXPECT_EQ(found->name, m.name);
  }
  // Near-miss names are an error, not an abort.
  for (const char* name : {"vgg", "resnet", "masknet", "no-such-model", ""}) {
    EXPECT_EQ(FindZooModel(name).status().code(), StatusCode::kInvalidArgument) << name;
  }
}

class ZooAgreementTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ZooAgreementTest, QuantizedTracksFloat) {
  const Model model = MakeZooModel(GetParam());
  const Tensor<float> input = SyntheticInput(model, 42);
  const Tensor<float> f = RunFloat(model, input);
  const Tensor<float> q = RunQuantizedF(model, input);
  ASSERT_EQ(f.shape(), q.shape());
  // Fixed-point error accumulates through depth; require closeness relative
  // to the quantization step.
  const double step = 1.0 / static_cast<double>(model.quant.SF());
  double worst = 0;
  for (int64_t i = 0; i < f.NumElements(); ++i) {
    worst = std::max(worst, std::abs(static_cast<double>(f.flat(i)) - q.flat(i)));
  }
  EXPECT_LT(worst, 40 * step) << "worst abs error " << worst;
}

TEST_P(ZooAgreementTest, ArgmaxUsuallyAgrees) {
  const Model model = MakeZooModel(GetParam());
  int agree = 0;
  const int kTrials = 5;
  for (int trial = 0; trial < kTrials; ++trial) {
    const Tensor<float> input = SyntheticInput(model, 100 + trial);
    const Tensor<float> f = RunFloat(model, input);
    const Tensor<float> q = RunQuantizedF(model, input);
    int64_t af = 0, aq = 0;
    for (int64_t i = 1; i < f.NumElements(); ++i) {
      if (f.flat(i) > f.flat(af)) {
        af = i;
      }
      if (q.flat(i) > q.flat(aq)) {
        aq = i;
      }
    }
    agree += (af == aq) ? 1 : 0;
  }
  EXPECT_GE(agree, kTrials - 1);
}

INSTANTIATE_TEST_SUITE_P(Zoo, ZooAgreementTest,
                         ::testing::Values("mnist", "resnet18", "vgg16", "mobilenet", "dlrm",
                                           "twitter", "gpt2", "diffusion", "lstm"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(ZooTest, LstmStructure) {
  const Model lstm = MakeLstmLite();
  EXPECT_EQ(lstm.input_shape, Shape({2, 8}));
  // Uses sigmoid and tanh tables (gates) — layers prior work cannot express.
  EXPECT_TRUE(lstm.UsedNonlinFns().count(NonlinFn::kSigmoid) > 0);
  EXPECT_TRUE(lstm.UsedNonlinFns().count(NonlinFn::kTanh) > 0);
  // Recurrence produces a chain of Mul/Add/Concat ops.
  int muls = 0;
  int concats = 0;
  for (const Op& op : lstm.ops) {
    muls += op.type == OpType::kMul;
    concats += op.type == OpType::kConcat;
  }
  EXPECT_GE(muls, 6);
  EXPECT_EQ(concats, 2);
}

}  // namespace
}  // namespace zkml
