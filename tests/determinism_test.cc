// Pins the exact proof bytes for a fixed model/layout/seed recipe. The hot
// kernels (MSM, FFT, field mul) have several equivalent implementations and
// parallel schedules; all of them are algebraically exact, so any change that
// alters the bytes is a real behavior change, not a rounding difference. If
// this test fails after an intentional protocol change, regenerate the hash
// (the failure message prints it) and update kGoldenSha256.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/layers/lowering.h"
#include "src/layers/quant_executor.h"
#include "src/model/zoo.h"
#include "src/transcript/sha256.h"
#include "src/zkml/batched.h"
#include "src/zkml/sharded.h"
#include "src/zkml/zkml.h"

namespace zkml {
namespace {

constexpr char kGoldenSha256[] =
    "82268f6e6b00ab2caa8ddfe9256ca4efc3c0e186834c357d1c6d21b6c83069f1";
// Composite artifacts (zkml.sharded_proof/v1 and zkml.batched_proof/v1) over
// the same model, seed and fixed 14-column layouts.
constexpr char kShardedGoldenSha256[] =
    "b655a5a21caf6ae167bb1936e12e35054a365bf5c53d26ccba3babe53fcac98e";
constexpr char kBatchedGoldenSha256[] =
    "c9406b854d21dae23b9b52fa659e3078edc81f41d2c1115f2c806c1f8c2b79c2";

ZkmlOptions GoldenOptions() {
  ZkmlOptions options;
  options.backend = PcsKind::kKzg;
  options.setup_seed = 42;
  return options;
}

// A fixed layout rather than the optimizer's pick, so the goldens pin the
// prover's bytes and not the optimizer's ranking (which
// OptimizerTest.GoldenLayoutsUnderTheCommittedProfile pins).
CompiledModel CompileFixed(const Model& model, size_t batch = 1) {
  const PhysicalLayout layout =
      SimulateLayout(model, GadgetSetForModel(model), 14, nullptr, batch);
  return CompileModelWithLayout(model, layout, GoldenOptions());
}

std::string HexDigest(const std::vector<uint8_t>& bytes) {
  const auto digest = Sha256::Hash(bytes.data(), bytes.size());
  std::string out;
  char buf[3];
  for (uint8_t b : digest) {
    std::snprintf(buf, sizeof(buf), "%02x", b);
    out += buf;
  }
  return out;
}

TEST(DeterminismTest, GoldenProofBytes) {
  const Model model = MakeMnistCnn();
  const PhysicalLayout layout = SimulateLayout(model, GadgetSetForModel(model), 14);
  ZkmlOptions options;
  options.backend = PcsKind::kKzg;
  options.setup_seed = 42;
  const CompiledModel compiled = CompileModelWithLayout(model, layout, options);
  const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, 77), model.quant);
  const ZkmlProof proof = Prove(compiled, input);
  ASSERT_TRUE(Verify(compiled, proof));

  EXPECT_EQ(proof.bytes.size(), 5245u);
  EXPECT_EQ(HexDigest(proof.bytes), kGoldenSha256);

  // Proving twice from the same inputs must be bit-identical (no scheduling
  // or iteration-order dependence leaks into the transcript).
  const ZkmlProof proof2 = Prove(compiled, input);
  EXPECT_EQ(proof2.bytes, proof.bytes);
}

TEST(DeterminismTest, GoldenShardedArtifactBytes) {
  const Model model = MakeMnistCnn();
  StatusOr<ModelPartition> partition = PartitionModel(model, 2);
  ASSERT_TRUE(partition.ok()) << partition.status().ToString();
  CompiledShardedModel compiled;
  compiled.model = model;
  compiled.partition = std::move(*partition);
  for (const ModelShard& shard : compiled.partition.shards) {
    compiled.shards.push_back(std::make_shared<const CompiledModel>(CompileFixed(shard.model)));
  }
  const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, 77), model.quant);
  const StatusOr<ProofPlan> plan = PlanProof(model, 2, 0);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const StatusOr<PlannedProof> proof = plan->Prove(compiled.shards, {input});
  ASSERT_TRUE(proof.ok()) << proof.status().ToString();
  ASSERT_TRUE(VerifySharded(compiled, proof->instance, proof->artifact).ok());
  EXPECT_EQ(HexDigest(proof->artifact), kShardedGoldenSha256);
}

TEST(DeterminismTest, GoldenBatchedArtifactBytes) {
  const Model model = MakeMnistCnn();
  const CompiledModel compiled = CompileFixed(model, 2);
  const std::vector<Tensor<int64_t>> inputs = {
      QuantizeTensor(SyntheticInput(model, 77), model.quant),
      QuantizeTensor(SyntheticInput(model, 78), model.quant)};
  const StatusOr<ProofPlan> plan = PlanProof(model, 1, 2);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const StatusOr<PlannedProof> proof =
      plan->Prove({std::make_shared<const CompiledModel>(compiled)}, inputs);
  ASSERT_TRUE(proof.ok()) << proof.status().ToString();
  ASSERT_TRUE(VerifyBatchedDetailed(compiled, proof->instance, proof->artifact).ok());
  EXPECT_EQ(HexDigest(proof->artifact), kBatchedGoldenSha256);
}

}  // namespace
}  // namespace zkml
