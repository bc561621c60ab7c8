// Tests for the proof planner (src/zkml/proof_plan.h): the one kind rule,
// the request bounds that reject before any compile, planning a verifier
// from an artifact (including forged counts and legacy 1-shard artifacts),
// and a prove/verify round trip through the plan for every kind.
#include <gtest/gtest.h>

#include <tuple>

#include "src/model/model_builder.h"
#include "src/model/zoo.h"
#include "src/tensor/quantizer.h"
#include "src/zkml/proof_plan.h"
#include "src/zkml/sharded.h"

namespace zkml {
namespace {

ZkmlOptions FastOptions() {
  ZkmlOptions options;
  options.optimizer.min_columns = 10;
  options.optimizer.max_columns = 26;
  options.optimizer.max_k = 14;
  return options;
}

QuantParams TinyQuant() {
  QuantParams qp;
  qp.sf_bits = 5;
  qp.table_bits = 10;
  return qp;
}

Model TinyChain() {
  ModelBuilder mb("tiny-chain", Shape({6}), TinyQuant(), 3);
  int t = mb.FullyConnected(mb.input(), 4);
  t = mb.Activation(t, NonlinFn::kRelu);
  t = mb.FullyConnected(t, 3);
  return mb.Finish(t);
}

// One op: the graph has no cut, so MaxShards is 1.
Model OneRelu() {
  ModelBuilder mb("tiny", Shape({1, 16}), TinyQuant(), 3);
  return mb.Finish(mb.Activation(mb.input(), NonlinFn::kRelu));
}

std::vector<Tensor<int64_t>> Inputs(const Model& model, size_t n) {
  std::vector<Tensor<int64_t>> inputs;
  for (size_t i = 0; i < n; ++i) {
    inputs.push_back(QuantizeTensor(SyntheticInput(model, 31 + i), model.quant));
  }
  return inputs;
}

TEST(ProofPlanTest, OneKindRuleForEveryRequest) {
  const Model model = TinyChain();
  const StatusOr<ProofPlan> single = PlanProof(model, 0, 0, FastOptions());
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  EXPECT_FALSE(single->composite.has_value());
  EXPECT_EQ(single->shards, 1u);
  EXPECT_EQ(single->batch, 0u);
  EXPECT_EQ(single->label, "");
  ASSERT_EQ(single->circuits.size(), 1u);
  EXPECT_EQ(single->circuits[0].key_suffix, "");

  const StatusOr<ProofPlan> sharded = PlanProof(model, 2, 1, FastOptions());
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(sharded->composite, CompositeKind::kSharded);
  EXPECT_EQ(sharded->shards, 2u);
  EXPECT_EQ(sharded->label, "shards2");
  ASSERT_EQ(sharded->circuits.size(), 2u);
  EXPECT_EQ(sharded->circuits[0].key_suffix, ":shard0/2");
  EXPECT_EQ(sharded->circuits[1].key_suffix, ":shard1/2");

  const StatusOr<ProofPlan> batched = PlanProof(model, 1, 3, FastOptions());
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  EXPECT_EQ(batched->composite, CompositeKind::kBatched);
  EXPECT_EQ(batched->batch, 3u);
  EXPECT_EQ(batched->inferences(), 3u);
  ASSERT_EQ(batched->circuits.size(), 1u);
  EXPECT_EQ(batched->circuits[0].key_suffix, ":batch3");

  const StatusOr<ProofPlan> both = PlanProof(model, 2, 2, FastOptions());
  ASSERT_FALSE(both.ok());
  EXPECT_EQ(both.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProofPlanTest, UncuttableModelAskedForShardsIsOneCircuit) {
  const Model model = OneRelu();
  ASSERT_EQ(MaxShards(model), 1u);
  const StatusOr<ProofPlan> plan = PlanProof(model, 4, 0, FastOptions());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(plan->composite.has_value());
  EXPECT_EQ(plan->shards, 1u);
  EXPECT_EQ(plan->circuits.size(), 1u);
  EXPECT_EQ(plan->label, "");
}

TEST(ProofPlanTest, OversizedBatchRejectedWithoutRunningTheOptimizer) {
  const Model mnist = MakeMnistCnn();
  // 100000 statements of mnist cannot fit 2^14 instance rows; the bound
  // answers at once instead of after minutes of layout search.
  const StatusOr<ProofPlan> huge = PlanProof(mnist, 0, 100000, FastOptions());
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kOutOfRange) << huge.status().ToString();
  EXPECT_EQ(CheckProofRequest(mnist, 0, 100000, FastOptions()).code(), StatusCode::kOutOfRange);
  // A batch whose statement fits is planned (and only planned).
  EXPECT_TRUE(PlanProof(mnist, 0, 8, FastOptions()).ok());
}

TEST(ProofPlanTest, ForgedArtifactCountsRejectedBeforeCompile) {
  const Model mnist = MakeMnistCnn();
  // A 16 KB ZKBP claiming 4096 inferences: over the row bound.
  CompositeProof forged;
  forged.kind = CompositeKind::kBatched;
  forged.segments.resize(4096);
  forged.proofs.resize(1);
  const StatusOr<ProofPlan> many = PlanFromArtifact(mnist, EncodeCompositeProof(forged), FastOptions());
  EXPECT_FALSE(many.ok());

  // 64 inferences fit the rows, but their empty segments do not match the
  // model's [input ‖ output] shape.
  forged.segments.resize(64);
  const StatusOr<ProofPlan> empty =
      PlanFromArtifact(mnist, EncodeCompositeProof(forged), FastOptions());
  ASSERT_FALSE(empty.ok());
  EXPECT_NE(empty.status().message().find("inference 0"), std::string::npos)
      << empty.status().ToString();

  // More shards than the graph can be cut into.
  CompositeProof shards;
  shards.segments.resize(MaxShards(mnist) + 2);
  shards.proofs.resize(MaxShards(mnist) + 1);
  EXPECT_FALSE(PlanFromArtifact(mnist, EncodeCompositeProof(shards), FastOptions()).ok());

  // Undecodable artifacts fail to plan; raw proof bytes plan a single circuit.
  EXPECT_FALSE(PlanFromArtifact(mnist, {'Z', 'K', 'S', 'H', 1}, FastOptions()).ok());
  const StatusOr<ProofPlan> raw = PlanFromArtifact(mnist, {0x02, 0x01}, FastOptions());
  ASSERT_TRUE(raw.ok());
  EXPECT_FALSE(raw->composite.has_value());
}

TEST(ProofPlanTest, EveryKindProvesAndVerifiesThroughItsPlan) {
  const Model model = TinyChain();
  for (const auto& [shards, batch] : {std::pair<size_t, size_t>{0, 0}, {2, 0}, {0, 2}}) {
    SCOPED_TRACE("shards " + std::to_string(shards) + " batch " + std::to_string(batch));
    const StatusOr<ProofPlan> plan = PlanProof(model, shards, batch, FastOptions());
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const StatusOr<Circuits> circuits = plan->CompileAll();
    ASSERT_TRUE(circuits.ok()) << circuits.status().ToString();
    const StatusOr<PlannedProof> proof =
        plan->Prove(*circuits, Inputs(model, plan->inferences()));
    ASSERT_TRUE(proof.ok()) << proof.status().ToString();
    EXPECT_EQ(proof->outputs.size(), plan->inferences());
    ASSERT_FALSE(proof->report.is_null());

    // The verifier plans from the artifact alone and lands on the same kind.
    const StatusOr<ProofPlan> verifier = PlanFromArtifact(model, proof->artifact, FastOptions());
    ASSERT_TRUE(verifier.ok()) << verifier.status().ToString();
    EXPECT_EQ(verifier->label, plan->label);
    const VerifyResult ok = verifier->Verify(*circuits, proof->instance, proof->artifact);
    EXPECT_TRUE(ok.ok()) << ok.ToString();

    std::vector<Fr> lie = proof->instance;
    lie.back() += Fr::One();
    EXPECT_FALSE(verifier->Verify(*circuits, lie, proof->artifact).ok());
    std::vector<Fr> longer = proof->instance;
    longer.push_back(Fr::One());
    EXPECT_EQ(verifier->Verify(*circuits, longer, proof->artifact).stage, VerifyStage::kInstance);
  }
}

TEST(ProofPlanTest, OneShardArtifactStillVerifies) {
  // Artifacts written before the planner folded uncuttable shard requests
  // into one circuit hold a single shard; they still verify as ZKSH.
  const Model model = OneRelu();
  const StatusOr<CompiledShardedModel> compiled = CompileSharded(model, 4, FastOptions());
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_EQ(compiled->num_shards(), 1u);
  // Such an artifact is the one shard's proof over the segments [input,
  // output] of its statement.
  const StatusOr<ZkmlProof> proof = ProveCancellable(*compiled->shards[0], Inputs(model, 1)[0],
                                                     /*cancel=*/nullptr);
  ASSERT_TRUE(proof.ok()) << proof.status().ToString();
  CompositeProof one_shard;
  one_shard.kind = CompositeKind::kSharded;
  const auto split = proof->instance.begin() + model.input_shape.NumElements();
  one_shard.segments = {{proof->instance.begin(), split}, {split, proof->instance.end()}};
  one_shard.proofs = {proof->bytes};
  const std::vector<uint8_t> artifact = EncodeCompositeProof(one_shard);

  const StatusOr<ProofPlan> plan = PlanFromArtifact(model, artifact, FastOptions());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->composite, CompositeKind::kSharded);
  EXPECT_EQ(plan->shards, 1u);
  const StatusOr<Circuits> circuits = plan->CompileAll();
  ASSERT_TRUE(circuits.ok()) << circuits.status().ToString();
  const VerifyResult r = plan->Verify(*circuits, proof->instance, artifact);
  EXPECT_TRUE(r.ok()) << r.ToString();
}

TEST(ProofPlanTest, WrongShapedInputIsInvalidArgumentForEveryKind) {
  // Right element count, wrong shape: the prove step rejects it instead of
  // tripping the lowering's shape check.
  const Model tiny = OneRelu();
  const ZkmlOptions options = FastOptions();
  const Tensor<int64_t> flat(Shape({16}), std::vector<int64_t>(16, 1));
  const CompiledModel single = CompileModel(tiny, options);
  const StatusOr<ZkmlProof> direct = ProveCancellable(single, flat, /*cancel=*/nullptr);
  EXPECT_EQ(direct.status().code(), StatusCode::kInvalidArgument) << direct.status().ToString();

  const Model chain = TinyChain();
  const Tensor<int64_t> row(Shape({1, 6}), std::vector<int64_t>(6, 1));
  for (const auto& [model, shards, batch, input] :
       {std::tuple<const Model*, size_t, size_t, const Tensor<int64_t>*>{&tiny, 0, 0, &flat},
        {&tiny, 0, 2, &flat},
        {&chain, 2, 0, &row}}) {
    SCOPED_TRACE("shards " + std::to_string(shards) + " batch " + std::to_string(batch));
    const StatusOr<ProofPlan> plan = PlanProof(*model, shards, batch, options);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const StatusOr<Circuits> circuits = plan->CompileAll();
    ASSERT_TRUE(circuits.ok()) << circuits.status().ToString();
    const StatusOr<PlannedProof> proof =
        plan->Prove(*circuits, std::vector<Tensor<int64_t>>(plan->inferences(), *input));
    EXPECT_EQ(proof.status().code(), StatusCode::kInvalidArgument) << proof.status().ToString();
  }
}

}  // namespace
}  // namespace zkml
