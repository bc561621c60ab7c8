#include "src/model/zoo.h"

#include <cmath>

#include "src/base/check.h"
#include "src/model/model_builder.h"

namespace zkml {
namespace {

QuantParams SmallQuant() {
  QuantParams qp;
  qp.sf_bits = 5;
  qp.table_bits = 10;
  return qp;
}

QuantParams LargeQuant() {
  QuantParams qp;
  qp.sf_bits = 7;
  qp.table_bits = 11;
  return qp;
}

}  // namespace

Model MakeMnistCnn() {
  ModelBuilder mb("mnist", Shape({12, 12, 1}), SmallQuant(), 101);
  int t = mb.Conv2D(mb.input(), /*cout=*/4, /*kernel=*/3, /*stride=*/2, /*pad=*/0);  // 5x5x4
  t = mb.Activation(t, NonlinFn::kRelu);
  t = mb.Conv2D(t, /*cout=*/8, 3, 1, 0);  // 3x3x8
  t = mb.Activation(t, NonlinFn::kRelu);
  t = mb.Reshape(t, Shape({72}));
  t = mb.FullyConnected(t, 10);
  return mb.Finish(t);
}

Model MakeResNetLite() {
  ModelBuilder mb("resnet18", Shape({6, 6, 3}), LargeQuant(), 102);
  int t = mb.Conv2D(mb.input(), 4, 3, 1, 1);  // 6x6x4
  t = mb.Activation(t, NonlinFn::kRelu);
  // Residual block 1 (identity skip).
  {
    int skip = t;
    int b = mb.Conv2D(t, 4, 3, 1, 1);
    b = mb.Activation(b, NonlinFn::kRelu);
    b = mb.Conv2D(b, 4, 3, 1, 1);
    t = mb.Add(b, skip);
    t = mb.Activation(t, NonlinFn::kRelu);
  }
  // Downsample stage.
  t = mb.Conv2D(t, 8, 3, 2, 1);  // 3x3x8
  t = mb.Activation(t, NonlinFn::kRelu);
  // Residual block 2.
  {
    int skip = t;
    int b = mb.Conv2D(t, 8, 3, 1, 1);
    b = mb.Activation(b, NonlinFn::kRelu);
    b = mb.Conv2D(b, 8, 3, 1, 1);
    t = mb.Add(b, skip);
    t = mb.Activation(t, NonlinFn::kRelu);
  }
  t = mb.AvgPool(t, 3);  // 1x1x8
  t = mb.Reshape(t, Shape({8}));
  t = mb.FullyConnected(t, 10);
  return mb.Finish(t);
}

Model MakeVggLite() {
  // Plain deep CNNs accumulate the most fixed-point error, so VGG gets one
  // extra bit of scale (the per-model scale-factor choice of §4.1).
  QuantParams vgg_quant = LargeQuant();
  vgg_quant.sf_bits = 8;
  ModelBuilder mb("vgg16", Shape({8, 8, 3}), vgg_quant, 103);
  int t = mb.Conv2D(mb.input(), 8, 3, 1, 1);  // 8x8x8
  t = mb.Activation(t, NonlinFn::kRelu);
  t = mb.Conv2D(t, 8, 3, 1, 1);
  t = mb.Activation(t, NonlinFn::kRelu);
  t = mb.MaxPool(t, 2);  // 4x4x8
  t = mb.Conv2D(t, 16, 3, 1, 1);
  t = mb.Activation(t, NonlinFn::kRelu);
  t = mb.Conv2D(t, 16, 3, 1, 1);
  t = mb.Activation(t, NonlinFn::kRelu);
  t = mb.MaxPool(t, 2);  // 2x2x16
  t = mb.Reshape(t, Shape({64}));
  t = mb.FullyConnected(t, 32);
  t = mb.Activation(t, NonlinFn::kRelu);
  t = mb.FullyConnected(t, 10);
  return mb.Finish(t);
}

Model MakeMobileNetLite() {
  ModelBuilder mb("mobilenet", Shape({8, 8, 3}), LargeQuant(), 104);
  int t = mb.Conv2D(mb.input(), 8, 3, 1, 1);  // 8x8x8
  t = mb.Activation(t, NonlinFn::kRelu6);
  // Inverted-residual-style separable blocks.
  t = mb.DepthwiseConv2D(t, 3, 1, 1);
  t = mb.Activation(t, NonlinFn::kRelu6);
  t = mb.Conv2D(t, 16, 1, 1, 0);  // pointwise expand
  t = mb.Activation(t, NonlinFn::kRelu6);
  t = mb.DepthwiseConv2D(t, 3, 2, 1);  // 4x4x16
  t = mb.Activation(t, NonlinFn::kRelu6);
  t = mb.Conv2D(t, 24, 1, 1, 0);
  t = mb.Activation(t, NonlinFn::kRelu6);
  t = mb.AvgPool(t, 4);  // 1x1x24
  t = mb.Reshape(t, Shape({24}));
  t = mb.FullyConnected(t, 10);
  return mb.Finish(t);
}

Model MakeDlrm() {
  // Input: 16 dense features followed by four 8-dim pre-looked-up embeddings.
  ModelBuilder mb("dlrm", Shape({48}), SmallQuant(), 105);
  int dense = mb.Slice(mb.input(), {0}, {16});
  int bottom = mb.FullyConnected(dense, 16);
  bottom = mb.Activation(bottom, NonlinFn::kRelu);
  bottom = mb.FullyConnected(bottom, 8);
  bottom = mb.Activation(bottom, NonlinFn::kRelu);
  std::vector<int> vectors = {mb.Reshape(bottom, Shape({1, 8}))};
  for (int e = 0; e < 4; ++e) {
    int emb = mb.Slice(mb.input(), {16 + 8 * e}, {8});
    vectors.push_back(mb.Reshape(emb, Shape({1, 8})));
  }
  int stacked = mb.Concat(vectors, 0);                       // [5, 8]
  int inter = mb.BatchMatMul(stacked, stacked, /*tb=*/true);  // [5, 5] dot interactions
  int flat = mb.Reshape(inter, Shape({25}));
  int top_in = mb.Concat({mb.Reshape(bottom, Shape({8})), flat}, 0);  // [33]
  int t = mb.FullyConnected(top_in, 16);
  t = mb.Activation(t, NonlinFn::kRelu);
  t = mb.FullyConnected(t, 1);
  t = mb.Activation(t, NonlinFn::kSigmoid);
  return mb.Finish(t);
}

Model MakeMaskNet() {
  // Twitter's MaskNet: serial mask blocks; each computes an instance-guided
  // mask from the layer-normed input and gates a parallel projection.
  ModelBuilder mb("twitter", Shape({32}), LargeQuant(), 106);
  int x = mb.input();
  for (int block = 0; block < 2; ++block) {
    int ln = mb.LayerNorm(x);
    int mask = mb.FullyConnected(ln, 32);
    mask = mb.Activation(mask, NonlinFn::kRelu);
    mask = mb.FullyConnected(mask, 32);
    int proj = mb.FullyConnected(x, 32);
    x = mb.Mul(mask, proj);
    x = mb.Activation(x, NonlinFn::kRelu);
  }
  int t = mb.FullyConnected(x, 16);
  t = mb.Activation(t, NonlinFn::kRelu);
  t = mb.FullyConnected(t, 1);
  // Amplify the logit so scores spread beyond one quantization step.
  t = mb.Scale(t, 8.0);
  t = mb.Activation(t, NonlinFn::kSigmoid);
  return mb.Finish(t);
}

Model MakeGpt2Lite() {
  // One pre-norm decoder block + LM head. Input is the embedded sequence
  // (token+position embedding lookup happens outside the circuit; DESIGN.md).
  constexpr int64_t kSeq = 8;
  constexpr int64_t kDim = 16;
  constexpr int64_t kHeads = 2;
  constexpr int64_t kHeadDim = kDim / kHeads;
  constexpr int64_t kVocab = 16;
  // sf = 2^6: the softmax denominator (sum of kSeq scaled exponentials, up to
  // kSeq*SF) must stay within the variable-division range table (§5's limb
  // decomposition for larger denominators is future work; DESIGN.md).
  QuantParams gpt_quant = LargeQuant();
  gpt_quant.sf_bits = 6;
  ModelBuilder mb("gpt2", Shape({kSeq, kDim}), gpt_quant, 107);
  int x = mb.input();
  // --- Attention. ---
  int ln1 = mb.LayerNorm(x);
  int qp = mb.FullyConnected(ln1, kDim);
  int kp = mb.FullyConnected(ln1, kDim);
  int vp = mb.FullyConnected(ln1, kDim);
  auto split_heads = [&](int t) {
    // [seq, dim] -> [heads, seq, head_dim]
    int r = mb.Reshape(t, Shape({kSeq, kHeads, kHeadDim}));
    return mb.Transpose(r, {1, 0, 2});
  };
  int qh = split_heads(qp);
  int kh = split_heads(kp);
  int vh = split_heads(vp);
  int scores = mb.BatchMatMul(qh, kh, /*tb=*/true);  // [heads, seq, seq]
  scores = mb.Scale(scores, 1.0 / std::sqrt(static_cast<double>(kHeadDim)));
  int probs = mb.Softmax(scores);
  int ctx = mb.BatchMatMul(probs, vh, /*tb=*/false);  // [heads, seq, head_dim]
  int merged = mb.Reshape(mb.Transpose(ctx, {1, 0, 2}), Shape({kSeq, kDim}));
  int attn_out = mb.FullyConnected(merged, kDim);
  x = mb.Add(x, attn_out);
  // --- MLP. ---
  int ln2 = mb.LayerNorm(x);
  int h = mb.FullyConnected(ln2, 2 * kDim);
  h = mb.Activation(h, NonlinFn::kGelu);
  h = mb.FullyConnected(h, kDim);
  x = mb.Add(x, h);
  // --- Head. ---
  int lnf = mb.LayerNorm(x);
  int last = mb.Slice(lnf, {kSeq - 1, 0}, {1, kDim});
  int logits = mb.FullyConnected(mb.Reshape(last, Shape({kDim})), kVocab);
  return mb.Finish(logits);
}

Model MakeDiffusionLite() {
  // A denoiser step on a latent image: conv encoder, bottleneck with skip,
  // conv decoder back to the latent channels.
  ModelBuilder mb("diffusion", Shape({6, 6, 4}), LargeQuant(), 108);
  int x = mb.input();
  int h1 = mb.Conv2D(x, 8, 3, 1, 1);  // 6x6x8
  h1 = mb.Activation(h1, NonlinFn::kSiLU);
  int h2 = mb.Conv2D(h1, 8, 3, 1, 1);
  h2 = mb.Activation(h2, NonlinFn::kSiLU);
  int h3 = mb.Add(h2, h1);  // residual
  int out = mb.Conv2D(h3, 4, 3, 1, 1);  // back to latent channels
  return mb.Finish(out);
}

Model MakeLstmLite() {
  // A 2-step LSTM over 8-dim inputs with hidden size 8, unrolled (the paper
  // unrolls loops; §4.1). Gates: [i,f,o,g] = W [x_t ; h_{t-1}] + b, then
  // c_t = sigmoid(f) * c_{t-1} + sigmoid(i) * tanh(g),
  // h_t = sigmoid(o) * tanh(c_t).
  constexpr int64_t kSteps = 2;
  constexpr int64_t kIn = 8;
  constexpr int64_t kHidden = 8;
  QuantParams qp;
  qp.sf_bits = 6;
  qp.table_bits = 11;
  ModelBuilder mb("lstm", Shape({kSteps, kIn}), qp, 109);
  // h_0 = c_0 = 0: reuse a zero projection of the first input row.
  int x0 = mb.Reshape(mb.Slice(mb.input(), {0, 0}, {1, kIn}), Shape({kIn}));
  int h = mb.Scale(mb.FullyConnected(x0, kHidden), 0.0);
  int c = mb.Scale(h, 1.0);
  for (int64_t t = 0; t < kSteps; ++t) {
    int xt = mb.Reshape(mb.Slice(mb.input(), {t, 0}, {1, kIn}), Shape({kIn}));
    int xh = mb.Concat({xt, h}, 0);  // [kIn + kHidden]
    int gates = mb.FullyConnected(xh, 4 * kHidden);
    int ig = mb.Activation(mb.Slice(gates, {0 * kHidden}, {kHidden}), NonlinFn::kSigmoid);
    int fg = mb.Activation(mb.Slice(gates, {1 * kHidden}, {kHidden}), NonlinFn::kSigmoid);
    int og = mb.Activation(mb.Slice(gates, {2 * kHidden}, {kHidden}), NonlinFn::kSigmoid);
    int gg = mb.Activation(mb.Slice(gates, {3 * kHidden}, {kHidden}), NonlinFn::kTanh);
    c = mb.Add(mb.Mul(fg, c), mb.Mul(ig, gg));
    h = mb.Mul(og, mb.Activation(c, NonlinFn::kTanh));
  }
  int logits = mb.FullyConnected(h, 4);
  return mb.Finish(logits);
}

namespace {

struct ZooEntry {
  const char* name;
  Model (*make)();
};

// Table 5 order, then lstm, which AllZooModels leaves out.
constexpr ZooEntry kZoo[] = {
    {"gpt2", MakeGpt2Lite},       {"diffusion", MakeDiffusionLite}, {"twitter", MakeMaskNet},
    {"dlrm", MakeDlrm},           {"mobilenet", MakeMobileNetLite}, {"resnet18", MakeResNetLite},
    {"vgg16", MakeVggLite},       {"mnist", MakeMnistCnn},          {"lstm", MakeLstmLite},
};

}  // namespace

std::vector<Model> AllZooModels() {
  std::vector<Model> models;
  for (const ZooEntry& e : kZoo) {
    if (std::string(e.name) != "lstm") models.push_back(e.make());
  }
  return models;
}

StatusOr<Model> FindZooModel(const std::string& name) {
  std::string known;
  for (const ZooEntry& e : kZoo) {
    if (name == e.name) return e.make();
    known += known.empty() ? e.name : std::string(", ") + e.name;
  }
  return InvalidArgumentError("unknown zoo model '" + name + "' (known: " + known + ")");
}

Model MakeZooModel(const std::string& name) {
  StatusOr<Model> model = FindZooModel(name);
  ZKML_CHECK_MSG(model.ok(), model.status().ToString().c_str());
  return std::move(model).value();
}

Tensor<float> SyntheticInput(const Model& model, uint64_t seed) {
  Rng rng(seed * 2654435761ULL + 12345);
  Tensor<float> in(model.input_shape);
  for (int64_t i = 0; i < in.NumElements(); ++i) {
    in.flat(i) = static_cast<float>(rng.NextGaussian() * 0.5);
  }
  return in;
}

}  // namespace zkml
