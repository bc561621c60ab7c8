// End-to-end tests for batched multi-inference proving (src/zkml/batched.h),
// proved through the planner: compile/prove/verify under both commitment
// backends, N=1 bit-compatibility
// with the single-circuit pipeline, per-inference tamper attribution at the
// batch-stitch stage, artifact codec round-trips, and the telemetry report.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/layers/quant_executor.h"
#include "src/model/model_builder.h"
#include "src/model/zoo.h"
#include "src/tensor/quantizer.h"
#include "src/zkml/batched.h"
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

std::vector<Tensor<int64_t>> BatchInputs(const Model& model, size_t batch, uint64_t seed) {
  std::vector<Tensor<int64_t>> inputs;
  for (size_t i = 0; i < batch; ++i) {
    inputs.push_back(QuantizeTensor(SyntheticInput(model, seed + i), model.quant));
  }
  return inputs;
}

// Proves through the planner with the circuit CompileBatched built.
StatusOr<PlannedProof> ProveBatched(const Model& model, const CompiledBatchedModel& compiled,
                                    const std::vector<Tensor<int64_t>>& inputs) {
  ZKML_ASSIGN_OR_RETURN(ProofPlan plan, PlanProof(model, 1, compiled.batch()));
  return plan.Prove({std::make_shared<const CompiledModel>(compiled.compiled)}, inputs);
}

class BatchedTest : public ::testing::TestWithParam<PcsKind> {};

TEST_P(BatchedTest, ProveVerifyRoundTrip) {
  const Model model = TinyChain();
  const StatusOr<CompiledBatchedModel> compiled =
      CompileBatched(model, 3, FastOptions(GetParam()));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_EQ(compiled->batch(), 3u);

  const std::vector<Tensor<int64_t>> inputs = BatchInputs(model, 3, 11);
  const StatusOr<PlannedProof> proof = ProveBatched(model, *compiled, inputs);
  ASSERT_TRUE(proof.ok()) << proof.status().ToString();
  const StatusOr<CompositeProof> artifact = DecodeCompositeProof(proof->artifact);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  ASSERT_EQ(artifact->segments.size(), 3u);
  ASSERT_EQ(proof->outputs.size(), 3u);

  // The statement is the concatenation of the per-inference segments.
  std::vector<Fr> concat;
  for (const std::vector<Fr>& seg : artifact->segments) {
    concat.insert(concat.end(), seg.begin(), seg.end());
  }
  EXPECT_EQ(proof->instance, concat);

  // Every inference's proven output equals its quantized reference execution.
  for (size_t i = 0; i < 3; ++i) {
    const Tensor<int64_t> expected = RunQuantized(model, inputs[i]);
    EXPECT_EQ(proof->outputs[i], expected.ToVector()) << "inference " << i;
  }

  EXPECT_EQ(CompositeKindOf(proof->artifact), CompositeKind::kBatched);
  const VerifyResult r = VerifyBatchedDetailed(*compiled, proof->instance, proof->artifact);
  EXPECT_TRUE(r.ok()) << r.ToString();
}

TEST_P(BatchedTest, BatchOfOneIsBitIdenticalToSingleProof) {
  // The N=1 batched circuit IS the single-inference circuit: same layout,
  // same keys, same transcript — so the proof bytes must match exactly, and
  // either verifier accepts the other's artifact content.
  const Model model = TinyChain();
  const ZkmlOptions options = FastOptions(GetParam());
  const StatusOr<CompiledBatchedModel> batched = CompileBatched(model, 1, options);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  const CompiledModel single = CompileModel(model, options);

  const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, 5), model.quant);
  const StatusOr<ZkmlProof> bp = ProveCircuit(batched->compiled, {input});
  ASSERT_TRUE(bp.ok()) << bp.status().ToString();
  const ZkmlProof sp = Prove(single, input);

  EXPECT_EQ(bp->bytes, sp.bytes);
  EXPECT_EQ(bp->instance, sp.instance);

  // Cross-check: the single-circuit verifier accepts the batched proof.
  const VerifyResult r = VerifyDetailed(single.pk.vk, *single.pcs, bp->instance, bp->bytes);
  EXPECT_TRUE(r.ok()) << r.ToString();
}

TEST_P(BatchedTest, TamperedInferenceBlamedAtBatchStitch) {
  const Model model = TinyChain();
  const StatusOr<CompiledBatchedModel> compiled =
      CompileBatched(model, 3, FastOptions(GetParam()));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const StatusOr<PlannedProof> proof = ProveBatched(model, *compiled, BatchInputs(model, 3, 13));
  ASSERT_TRUE(proof.ok()) << proof.status().ToString();
  const std::vector<uint8_t>& artifact = proof->artifact;

  // Claiming a different value inside inference 1's segment must fail at the
  // stitch stage, and the rejection must name that inference.
  std::vector<Fr> tampered = proof->instance;
  const size_t seg1 = proof->instance.size() / 3;
  tampered[seg1] += Fr::One();
  const VerifyResult r = VerifyBatchedDetailed(*compiled, tampered, artifact);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.stage, VerifyStage::kBatchStitch) << r.ToString();
  EXPECT_NE(r.ToString().find("inference 1"), std::string::npos) << r.ToString();

  // Same for the last inference, to pin the offset arithmetic at both ends.
  std::vector<Fr> tampered_last = proof->instance;
  tampered_last.back() += Fr::One();
  const VerifyResult r2 = VerifyBatchedDetailed(*compiled, tampered_last, artifact);
  EXPECT_FALSE(r2.ok());
  EXPECT_EQ(r2.stage, VerifyStage::kBatchStitch) << r2.ToString();
  EXPECT_NE(r2.ToString().find("inference 2"), std::string::npos) << r2.ToString();
}

TEST_P(BatchedTest, WrongInputCountRejected) {
  const Model model = TinyChain();
  const StatusOr<CompiledBatchedModel> compiled =
      CompileBatched(model, 2, FastOptions(GetParam()));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_FALSE(ProveBatched(model, *compiled, BatchInputs(model, 3, 7)).ok());
  const StatusOr<ZkmlProof> proof = ProveCircuit(compiled->compiled, BatchInputs(model, 3, 7));
  EXPECT_EQ(proof.status().code(), StatusCode::kInvalidArgument) << proof.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(Backends, BatchedTest, ::testing::Values(PcsKind::kKzg, PcsKind::kIpa),
                         [](const ::testing::TestParamInfo<PcsKind>& info) {
                           return info.param == PcsKind::kKzg ? "Kzg" : "Ipa";
                         });

TEST(BatchedCodecTest, DecodeRoundTripAndMalformedRejection) {
  const Model model = TinyChain();
  const StatusOr<CompiledBatchedModel> compiled =
      CompileBatched(model, 2, FastOptions(PcsKind::kKzg));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const StatusOr<PlannedProof> proof = ProveBatched(model, *compiled, BatchInputs(model, 2, 23));
  ASSERT_TRUE(proof.ok()) << proof.status().ToString();

  const std::vector<uint8_t>& artifact = proof->artifact;
  const StatusOr<CompositeProof> decoded = DecodeCompositeProof(artifact);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->kind, CompositeKind::kBatched);
  EXPECT_EQ(decoded->segments.size(), 2u);
  EXPECT_EQ(decoded->proofs.size(), 1u);
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

TEST(BatchedReportTest, ReportJsonCarriesSchemaAndPerInferenceCost) {
  const Model model = TinyChain();
  const StatusOr<CompiledBatchedModel> compiled =
      CompileBatched(model, 2, FastOptions(PcsKind::kKzg));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const StatusOr<PlannedProof> proof = ProveBatched(model, *compiled, BatchInputs(model, 2, 17));
  ASSERT_TRUE(proof.ok()) << proof.status().ToString();

  const obs::Json& report = proof->report;
  ASSERT_NE(report.Find("schema"), nullptr);
  EXPECT_EQ(report.Find("schema")->AsString(), kBatchedProofSchema);
  ASSERT_NE(report.Find("batch"), nullptr);
  EXPECT_EQ(report.Find("batch")->AsInt(), 2);
  ASSERT_NE(report.Find("prove_seconds_per_inference"), nullptr);
  const obs::Json* elems = report.Find("instance_elements");
  ASSERT_NE(elems, nullptr);
  ASSERT_TRUE(elems->is_array());
  EXPECT_EQ(elems->size(), 2u);
  // Round-trips through the JSON parser (telemetry-validate consumes this).
  const StatusOr<obs::Json> reparsed = obs::Json::Parse(report.DumpPretty());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
}

}  // namespace
}  // namespace zkml
