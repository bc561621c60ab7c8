// End-to-end tests for sharded proving (src/zkml/sharded.h), proved through
// the planner: compile/prove/verify under both commitment backends, artifact codec round-trips, composite
// statement compatibility with the single-circuit pipeline, wrong-statement
// rejection with stage attribution, and the telemetry report schema.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/layers/quant_executor.h"
#include "src/model/model_builder.h"
#include "src/model/zoo.h"
#include "src/tensor/quantizer.h"
#include "src/zkml/sharded.h"
#include "src/zkml/zkml.h"

namespace zkml {
namespace {

ZkmlOptions FastOptions(PcsKind backend) {
  ZkmlOptions options;
  options.backend = backend;
  options.optimizer.min_columns = 10;
  options.optimizer.max_columns = 26;
  options.optimizer.max_k = 14;
  return options;
}

Model TinyChain() {
  QuantParams qp;
  qp.sf_bits = 5;
  qp.table_bits = 10;
  ModelBuilder mb("tiny-chain", Shape({6}), qp, 3);
  int t = mb.FullyConnected(mb.input(), 4);
  t = mb.Activation(t, NonlinFn::kRelu);
  t = mb.FullyConnected(t, 3);
  return mb.Finish(t);
}

// Proves through the planner with the circuits CompileSharded built.
StatusOr<PlannedProof> ProveSharded(const Model& model, const CompiledShardedModel& compiled,
                                    const Tensor<int64_t>& input) {
  ZKML_ASSIGN_OR_RETURN(ProofPlan plan, PlanProof(model, compiled.num_shards(), 0));
  return plan.Prove(compiled.shards, {input});
}

class ShardedTest : public ::testing::TestWithParam<PcsKind> {};

TEST_P(ShardedTest, ProveVerifyRoundTrip) {
  const Model model = TinyChain();
  const StatusOr<CompiledShardedModel> compiled =
      CompileSharded(model, 2, FastOptions(GetParam()));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_EQ(compiled->num_shards(), 2u);

  const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, 11), model.quant);
  const StatusOr<PlannedProof> proof = ProveSharded(model, *compiled, input);
  ASSERT_TRUE(proof.ok()) << proof.status().ToString();
  const StatusOr<CompositeProof> artifact = DecodeCompositeProof(proof->artifact);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();

  // k shards -> k+1 boundary vectors; the composite statement is the outer
  // pair, exactly what the single-circuit verifier would see.
  ASSERT_EQ(artifact->segments.size(), 3u);
  ASSERT_EQ(artifact->proofs.size(), 2u);
  EXPECT_EQ(proof->instance.size(),
            artifact->segments.front().size() + artifact->segments.back().size());

  // The proven output equals the quantized reference execution.
  const Tensor<int64_t> expected = RunQuantized(model, input);
  ASSERT_EQ(proof->outputs.size(), 1u);
  EXPECT_EQ(proof->outputs[0], expected.ToVector());

  EXPECT_EQ(CompositeKindOf(proof->artifact), CompositeKind::kSharded);
  const VerifyResult r = VerifySharded(*compiled, proof->instance, proof->artifact);
  EXPECT_TRUE(r.ok()) << r.ToString();
}

TEST_P(ShardedTest, CompositeInstanceMatchesSingleCircuitStatement) {
  // A sharded proof claims the same public statement as the unsharded prover
  // for the same input, so statement consumers need no sharding awareness.
  const Model model = TinyChain();
  const ZkmlOptions options = FastOptions(GetParam());
  const StatusOr<CompiledShardedModel> sharded = CompileSharded(model, 2, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  const CompiledModel single = CompileModel(model, options);

  const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, 5), model.quant);
  const StatusOr<PlannedProof> proof = ProveSharded(model, *sharded, input);
  ASSERT_TRUE(proof.ok()) << proof.status().ToString();
  const ZkmlProof single_proof = Prove(single, input);
  EXPECT_EQ(proof->instance, single_proof.instance);
}

TEST_P(ShardedTest, WrongStatementRejectedAtStitchStage) {
  const Model model = TinyChain();
  const StatusOr<CompiledShardedModel> compiled =
      CompileSharded(model, 2, FastOptions(GetParam()));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, 13), model.quant);
  const StatusOr<PlannedProof> proof = ProveSharded(model, *compiled, input);
  ASSERT_TRUE(proof.ok()) << proof.status().ToString();
  const std::vector<uint8_t>& artifact = proof->artifact;

  // Claiming a different output must fail before any shard is verified: the
  // artifact's outer boundary disagrees with the statement.
  std::vector<Fr> bad_output = proof->instance;
  bad_output.back() += Fr::One();
  const VerifyResult r1 = VerifySharded(*compiled, bad_output, artifact);
  EXPECT_FALSE(r1.ok());
  EXPECT_EQ(r1.stage, VerifyStage::kShardStitch) << r1.ToString();

  // Claiming a different input must fail the same way.
  std::vector<Fr> bad_input = proof->instance;
  bad_input[0] += Fr::One();
  const VerifyResult r2 = VerifySharded(*compiled, bad_input, artifact);
  EXPECT_FALSE(r2.ok());
  EXPECT_EQ(r2.stage, VerifyStage::kShardStitch) << r2.ToString();
}

TEST_P(ShardedTest, ReportJsonCarriesSchemaAndPerShardTimings) {
  const Model model = TinyChain();
  const StatusOr<CompiledShardedModel> compiled =
      CompileSharded(model, 2, FastOptions(GetParam()));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, 17), model.quant);
  const StatusOr<PlannedProof> proof = ProveSharded(model, *compiled, input);
  ASSERT_TRUE(proof.ok()) << proof.status().ToString();

  const obs::Json& report = proof->report;
  ASSERT_NE(report.Find("schema"), nullptr);
  EXPECT_EQ(report.Find("schema")->AsString(), kShardedProofSchema);
  // Round-trips through the JSON parser (telemetry-validate consumes this).
  const StatusOr<obs::Json> reparsed = obs::Json::Parse(report.DumpPretty());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(Backends, ShardedTest, ::testing::Values(PcsKind::kKzg, PcsKind::kIpa),
                         [](const ::testing::TestParamInfo<PcsKind>& info) {
                           return info.param == PcsKind::kKzg ? "Kzg" : "Ipa";
                         });

TEST(ShardedCodecTest, DecodeRoundTripAndMalformedRejection) {
  const Model model = TinyChain();
  const StatusOr<CompiledShardedModel> compiled =
      CompileSharded(model, 2, FastOptions(PcsKind::kKzg));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, 23), model.quant);
  const StatusOr<PlannedProof> proof = ProveSharded(model, *compiled, input);
  ASSERT_TRUE(proof.ok()) << proof.status().ToString();

  const std::vector<uint8_t>& artifact = proof->artifact;
  const StatusOr<CompositeProof> decoded = DecodeCompositeProof(artifact);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->kind, CompositeKind::kSharded);
  EXPECT_EQ(decoded->segments.size(), 3u);
  EXPECT_EQ(decoded->proofs.size(), 2u);
  EXPECT_EQ(EncodeCompositeProof(*decoded), artifact);

  // Truncation at any prefix must be rejected, never crash.
  for (const size_t len : {size_t{0}, size_t{3}, size_t{8}, artifact.size() / 2,
                           artifact.size() - 1}) {
    const std::vector<uint8_t> cut(artifact.begin(), artifact.begin() + len);
    EXPECT_FALSE(DecodeCompositeProof(cut).ok()) << "truncated to " << len << " bytes";
  }
  // A single-circuit proof is not mistaken for a composite artifact.
  EXPECT_FALSE(CompositeKindOf(std::vector<uint8_t>{0x01, 0x02, 0x03, 0x04, 0x05}));
}

TEST(ShardedCodecTest, ResolveShardCountClampsToModelAndHardware) {
  const Model model = TinyChain();
  const size_t max = MaxShards(model);
  EXPECT_EQ(ResolveShardCount(model, 1), 1u);
  EXPECT_LE(ResolveShardCount(model, 0), max);     // auto: per hardware thread
  EXPECT_GE(ResolveShardCount(model, 0), 1u);
  EXPECT_EQ(ResolveShardCount(model, 1000), max);  // over-ask clamps, not fails
}

}  // namespace
}  // namespace zkml
