// Full-stack end-to-end: model -> optimizer -> circuit -> proof -> verify,
// under both commitment backends.
#include <gtest/gtest.h>

#include <cstdio>
#include <thread>
#include <vector>

#include "src/layers/quant_executor.h"
#include "src/model/zoo.h"
#include "src/obs/metrics.h"
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

class E2eTest : public ::testing::TestWithParam<PcsKind> {};

TEST_P(E2eTest, MnistProveVerify) {
  const Model model = MakeMnistCnn();
  const CompiledModel compiled = CompileModel(model, FastOptions(GetParam()));

  const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, 11), model.quant);
  const ZkmlProof proof = Prove(compiled, input);
  EXPECT_FALSE(proof.bytes.empty());
  EXPECT_TRUE(Verify(compiled, proof));

  // The proven output equals the quantized reference execution.
  const Tensor<int64_t> expected = RunQuantized(model, input);
  EXPECT_EQ(proof.output_q.ToVector(), expected.ToVector());

  // Optimizer honesty check: the cost model's prediction is published next to
  // the measured prove time so estimator drift is visible in telemetry.
  const double predicted =
      obs::MetricsRegistry::Global().gauge("optimizer.predicted_prove_seconds").Value();
  const double measured =
      obs::MetricsRegistry::Global().gauge("prover.measured_prove_seconds").Value();
  EXPECT_GT(predicted, 0.0);
  EXPECT_GT(measured, 0.0);
  EXPECT_DOUBLE_EQ(predicted, compiled.predicted_cost.total_seconds);
  EXPECT_DOUBLE_EQ(measured, proof.prove_seconds);
  std::printf("cost-model honesty: predicted %.3fs, measured %.3fs (ratio %.2fx)\n", predicted,
              measured, predicted / measured);
}

TEST_P(E2eTest, TamperedStatementRejected) {
  const Model model = MakeMnistCnn();
  const CompiledModel compiled = CompileModel(model, FastOptions(GetParam()));
  const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, 12), model.quant);
  ZkmlProof proof = Prove(compiled, input);
  ASSERT_TRUE(Verify(compiled, proof));

  // Claiming a different output must fail.
  ZkmlProof bad_output = proof;
  bad_output.instance.back() += Fr::One();
  EXPECT_FALSE(Verify(compiled, bad_output));

  // Claiming a different input must fail.
  ZkmlProof bad_input = proof;
  bad_input.instance[0] += Fr::One();
  EXPECT_FALSE(Verify(compiled, bad_input));

  // A flipped proof byte must fail.
  ZkmlProof corrupt = proof;
  corrupt.bytes[corrupt.bytes.size() / 3] ^= 0x04;
  EXPECT_FALSE(Verify(compiled, corrupt));
}

TEST_P(E2eTest, DifferentInputsDifferentProofsSameKeys) {
  const Model model = MakeDlrm();
  const CompiledModel compiled = CompileModel(model, FastOptions(GetParam()));
  const Tensor<int64_t> in1 = QuantizeTensor(SyntheticInput(model, 21), model.quant);
  const Tensor<int64_t> in2 = QuantizeTensor(SyntheticInput(model, 22), model.quant);
  const ZkmlProof p1 = Prove(compiled, in1);
  const ZkmlProof p2 = Prove(compiled, in2);
  EXPECT_TRUE(Verify(compiled, p1));
  EXPECT_TRUE(Verify(compiled, p2));
  EXPECT_NE(p1.instance, p2.instance);
  // Swapping statements must fail.
  ZkmlProof mixed = p1;
  mixed.instance = p2.instance;
  EXPECT_FALSE(Verify(compiled, mixed));
}

INSTANTIATE_TEST_SUITE_P(Backends, E2eTest, ::testing::Values(PcsKind::kKzg, PcsKind::kIpa),
                         [](const ::testing::TestParamInfo<PcsKind>& info) {
                           return info.param == PcsKind::kKzg ? "Kzg" : "Ipa";
                         });

TEST(E2eTest, ExplicitLayoutRoundTrip) {
  const Model model = MakeMnistCnn();
  PhysicalLayout layout = SimulateLayout(model, GadgetSetForModel(model), 14);
  ZkmlOptions options;
  options.backend = PcsKind::kKzg;
  const CompiledModel compiled = CompileModelWithLayout(model, layout, options);
  const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, 31), model.quant);
  const ZkmlProof proof = Prove(compiled, input);
  EXPECT_TRUE(Verify(compiled, proof));
}

// Compiles racing on one (backend, k, seed) pay for one setup and one
// Lagrange table between them, and every compiled model holds the same
// backend.
TEST(SharedSetupTest, ConcurrentCompilesBuildOneTable) {
  const Model model = MakeMnistCnn();
  ZkmlOptions options = FastOptions(PcsKind::kKzg);
  options.setup_seed = 0x5eed0201;  // no other test uses this setup
  auto& builds = obs::MetricsRegistry::Global().counter("pcs.lagrange_basis_builds");
  const uint64_t before = builds.Value();
  std::vector<CompiledModel> compiled(4);
  std::vector<std::thread> threads;
  for (CompiledModel& c : compiled) {
    threads.emplace_back([&] { c = CompileModel(model, options); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(builds.Value() - before, 1u);
  for (const CompiledModel& c : compiled) {
    EXPECT_EQ(c.pcs, compiled[0].pcs);
    EXPECT_EQ(c.pk.vk.fixed_commitments, compiled[0].pk.vk.fixed_commitments);
  }
}

TEST(SharedSetupTest, EqualOptionsShareOneSetupObject) {
  const Model model = MakeMnistCnn();
  const ZkmlOptions options = FastOptions(PcsKind::kIpa);
  const CompiledModel a = CompileModel(model, options);
  const CompiledModel b = CompileModel(model, options);
  ASSERT_EQ(a.layout.k, b.layout.k);
  EXPECT_EQ(a.pcs, b.pcs);
  const Tensor<int64_t> input = QuantizeTensor(SyntheticInput(model, 41), model.quant);
  EXPECT_TRUE(Verify(b, Prove(a, input)));

  ZkmlOptions other_seed = options;
  other_seed.setup_seed = options.setup_seed + 1;
  EXPECT_NE(CompileModelWithLayout(model, a.layout, other_seed).pcs, a.pcs);
}

}  // namespace
}  // namespace zkml
