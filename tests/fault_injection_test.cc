// Adversarial fault-injection harness (the robustness counterpart of the
// e2e tests): honest proofs from two circuit families and both PCS backends
// are subjected to >1000 seeded corruptions, every one of which must be
// rejected gracefully — structured Status, meaningful stage attribution,
// never an abort. Runs unchanged under ZKML_SANITIZE=ON.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/model/model_builder.h"
#include "src/model/serialize.h"
#include "src/model/zoo.h"
#include "src/pcs/ipa.h"
#include "src/pcs/kzg.h"
#include "src/plonk/keygen.h"
#include "src/plonk/proof_shape.h"
#include "src/plonk/prover.h"
#include "src/plonk/verifier.h"
#include "src/tensor/quantizer.h"
#include "src/zkml/batched.h"
#include "src/zkml/sharded.h"
#include "src/zkml/zkml.h"
#include "tests/proof_mutator.h"

namespace zkml {
namespace {

constexpr int kK = 5;
constexpr size_t kN = 1u << kK;

std::unique_ptr<Pcs> MakeBackend(PcsKind kind) {
  if (kind == PcsKind::kKzg) {
    return std::make_unique<KzgPcs>(std::make_shared<KzgSetup>(KzgSetup::Create(kN, 21)));
  }
  return std::make_unique<IpaPcs>(std::make_shared<IpaSetup>(IpaSetup::Create(kN, 21)));
}

// Gate + copy-constraint circuit: chained multiply-accumulate with the final
// accumulator exposed through the instance column.
struct MacCircuit {
  ConstraintSystem cs;
  Column sel, a, b, c, inst;

  MacCircuit() {
    inst = cs.AddInstanceColumn();
    a = cs.AddAdviceColumn(/*equality_enabled=*/true);
    b = cs.AddAdviceColumn(false);
    c = cs.AddAdviceColumn(true);
    sel = cs.AddFixedColumn();
    Expression q = Expression::Query(sel);
    cs.AddGate("mac", q * (Expression::Query(a) * Expression::Query(b) + Expression::Query(a) -
                           Expression::Query(c)));
  }

  Assignment MakeAssignment(const std::vector<int64_t>& bs) const {
    Assignment asn(cs, kN);
    int64_t acc = 1;
    for (size_t i = 0; i < bs.size(); ++i) {
      asn.SetFixed(sel, i, Fr::One());
      asn.SetAdvice(a, i, Fr::FromInt64(acc));
      asn.SetAdvice(b, i, Fr::FromInt64(bs[i]));
      acc = acc * bs[i] + acc;
      asn.SetAdvice(c, i, Fr::FromInt64(acc));
      if (i > 0) {
        asn.Copy(Cell{c, static_cast<uint32_t>(i - 1)}, Cell{a, static_cast<uint32_t>(i)});
      }
    }
    asn.SetInstance(inst, 0, Fr::FromInt64(acc));
    asn.Copy(Cell{inst, 0}, Cell{c, static_cast<uint32_t>(bs.size() - 1)});
    return asn;
  }
};

// Lookup circuit: q-gated rows must satisfy (v, v^3) in a fixed cube table.
struct CubeLookupCircuit {
  ConstraintSystem cs;
  Column inst, v, w, sel, tbl_in, tbl_out;

  CubeLookupCircuit() {
    inst = cs.AddInstanceColumn();
    v = cs.AddAdviceColumn(true);
    w = cs.AddAdviceColumn(true);
    sel = cs.AddFixedColumn();
    tbl_in = cs.AddFixedColumn();
    tbl_out = cs.AddFixedColumn();
    Expression q = Expression::Query(sel);
    cs.AddLookup("cube", {q * Expression::Query(v), q * Expression::Query(w)},
                 {tbl_in, tbl_out});
  }

  Assignment MakeAssignment(const std::vector<int64_t>& xs) const {
    Assignment asn(cs, kN);
    for (int64_t i = 0; i < 16; ++i) {
      asn.SetFixed(tbl_in, static_cast<size_t>(i), Fr::FromInt64(i));
      asn.SetFixed(tbl_out, static_cast<size_t>(i), Fr::FromInt64(i * i * i));
    }
    for (size_t i = 0; i < xs.size(); ++i) {
      asn.SetFixed(sel, i, Fr::One());
      asn.SetAdvice(v, i, Fr::FromInt64(xs[i]));
      asn.SetAdvice(w, i, Fr::FromInt64(xs[i] * xs[i] * xs[i]));
    }
    asn.SetInstance(inst, 0, asn.Get(w, 0));
    asn.Copy(Cell{inst, 0}, Cell{w, 0});
    return asn;
  }
};

// One honest (vk, proof, instance) triple for the harness to corrupt.
struct Target {
  std::string name;
  std::shared_ptr<Pcs> pcs;
  VerifyingKey vk;
  std::vector<std::vector<Fr>> instance;
  std::vector<uint8_t> proof;
};

const std::vector<Target>& Targets() {
  static const std::vector<Target>* targets = [] {
    auto* out = new std::vector<Target>();
    for (PcsKind kind : {PcsKind::kKzg, PcsKind::kIpa}) {
      const char* backend = kind == PcsKind::kKzg ? "kzg" : "ipa";
      {
        MacCircuit circuit;
        Assignment asn = circuit.MakeAssignment({2, 3, 4, 5});
        std::shared_ptr<Pcs> pcs = MakeBackend(kind);
        ProvingKey pk = Keygen(circuit.cs, asn, *pcs, kK);
        Target t;
        t.name = std::string("mac-") + backend;
        t.proof = CreateProof(pk, *pcs, asn);
        t.instance = {{asn.instance()[0][0]}};
        t.vk = std::move(pk.vk);
        t.pcs = std::move(pcs);
        out->push_back(std::move(t));
      }
      {
        CubeLookupCircuit circuit;
        Assignment asn = circuit.MakeAssignment({1, 2, 3, 5, 15});
        std::shared_ptr<Pcs> pcs = MakeBackend(kind);
        ProvingKey pk = Keygen(circuit.cs, asn, *pcs, kK);
        Target t;
        t.name = std::string("cube-") + backend;
        t.proof = CreateProof(pk, *pcs, asn);
        t.instance = {{asn.instance()[0][0]}};
        t.vk = std::move(pk.vk);
        t.pcs = std::move(pcs);
        out->push_back(std::move(t));
      }
    }
    return out;
  }();
  return *targets;
}

TEST(FaultInjectionTest, HonestProofsVerify) {
  for (const Target& t : Targets()) {
    const VerifyResult result = VerifyProof(t.vk, *t.pcs, t.instance, t.proof);
    EXPECT_TRUE(result.ok()) << t.name << ": " << result.ToString();
  }
}

// The main sweep: 4 targets x 7 mutation kinds x 40 seeds = 1120 corrupted
// proofs. Every single one must be rejected with a structured error whose
// code matches the trust-boundary contract; none may abort the process.
TEST(FaultInjectionTest, ThousandMutationsAllRejectedGracefully) {
  constexpr uint64_t kSeedsPerKind = 40;
  size_t cases = 0;
  size_t skipped_identical = 0;
  std::set<VerifyStage> stages_seen;
  std::map<StatusCode, size_t> code_histogram;

  const std::vector<Target>& targets = Targets();
  for (size_t ti = 0; ti < targets.size(); ++ti) {
    const Target& target = targets[ti];
    // Splice donor: the other circuit family on the same backend (targets
    // come in per-backend pairs).
    const std::vector<uint8_t>& donor = targets[ti ^ 1].proof;

    for (MutationKind kind : kAllMutationKinds) {
      for (uint64_t seed = 0; seed < kSeedsPerKind; ++seed) {
        ProofMutator mutator(seed * 1000003 + static_cast<uint64_t>(kind) * 131 + 17);
        const std::vector<uint8_t> bad = mutator.Mutate(target.proof, kind, donor);
        if (bad == target.proof) {
          ++skipped_identical;
          continue;
        }
        ++cases;
        const VerifyResult result = VerifyProof(target.vk, *target.pcs, target.instance, bad);
        ASSERT_FALSE(result.ok())
            << target.name << " accepted a corrupted proof (mutation "
            << MutationKindName(kind) << ", seed " << seed << ")";
        ASSERT_NE(result.stage, VerifyStage::kAccepted);
        const StatusCode code = result.status.code();
        ASSERT_TRUE(code == StatusCode::kMalformedProof || code == StatusCode::kVerifyFailed ||
                    code == StatusCode::kInvalidArgument || code == StatusCode::kOutOfRange)
            << target.name << " " << MutationKindName(kind) << " seed " << seed
            << " produced unexpected code: " << result.ToString();
        stages_seen.insert(result.stage);
        ++code_histogram[code];
      }
    }
  }

  EXPECT_GE(cases, 1000u) << "sweep shrank below the contract (skipped "
                          << skipped_identical << " no-op mutations)";
  // The rejections must be *attributed*: corruption in different proof
  // regions surfaces at different verifier stages, not one catch-all.
  EXPECT_GE(stages_seen.size(), 5u);
  for (VerifyStage stage : stages_seen) {
    SCOPED_TRACE(VerifyStageName(stage));
  }
  EXPECT_GT(code_histogram[StatusCode::kMalformedProof], 0u);
  EXPECT_GT(code_histogram[StatusCode::kVerifyFailed], 0u);
}

// --- Targeted mutations with exact stage attribution. ---

TEST(FaultInjectionTest, CorruptLeadingTagBlamesAdviceCommitments) {
  const Target& t = Targets()[0];  // mac-kzg
  std::vector<uint8_t> bad = t.proof;
  bad[0] = 7;  // neither infinity (0) nor a parity tag (2/3)
  const VerifyResult result = VerifyProof(t.vk, *t.pcs, t.instance, bad);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.stage, VerifyStage::kAdviceCommitments) << result.ToString();
  EXPECT_EQ(result.status.code(), StatusCode::kMalformedProof);
  // The message names the failing object and where it sits in the proof.
  EXPECT_NE(result.status.message().find("advice commitment 0"), std::string::npos)
      << result.ToString();
  EXPECT_NE(result.status.message().find("byte"), std::string::npos) << result.ToString();
}

TEST(FaultInjectionTest, EmptyProofBlamesProofLength) {
  const Target& t = Targets()[0];
  const VerifyResult result = VerifyProof(t.vk, *t.pcs, t.instance, {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.stage, VerifyStage::kProofLength) << result.ToString();
  EXPECT_EQ(result.status.code(), StatusCode::kMalformedProof);
}

TEST(FaultInjectionTest, TrailingGarbageBlamesProofLength) {
  for (const Target& t : Targets()) {
    std::vector<uint8_t> bad = t.proof;
    bad.push_back(0xab);
    const VerifyResult result = VerifyProof(t.vk, *t.pcs, t.instance, bad);
    ASSERT_FALSE(result.ok()) << t.name;
    EXPECT_EQ(result.stage, VerifyStage::kProofLength) << t.name << ": " << result.ToString();
    EXPECT_EQ(result.status.code(), StatusCode::kMalformedProof);
  }
}

TEST(FaultInjectionTest, NonCanonicalEvaluationBlamesEvaluations) {
  for (const Target& t : Targets()) {
    // All-ones bytes over the last evaluation scalar exceed the field modulus.
    const ProofShape shape(t.vk);
    const size_t pos = shape.EvaluationOffset(shape.openings().size() - 1);
    ASSERT_EQ(shape.Bytes(*t.pcs), t.proof.size()) << t.name;
    std::vector<uint8_t> bad = t.proof;
    for (size_t i = 0; i < 32; ++i) {
      bad[pos + i] = 0xff;
    }
    const VerifyResult result = VerifyProof(t.vk, *t.pcs, t.instance, bad);
    ASSERT_FALSE(result.ok()) << t.name;
    EXPECT_EQ(result.stage, VerifyStage::kEvaluations) << t.name << ": " << result.ToString();
    EXPECT_EQ(result.status.code(), StatusCode::kMalformedProof) << t.name;
    EXPECT_NE(result.status.message().find("canonical"), std::string::npos)
        << t.name << ": " << result.ToString();
    EXPECT_NE(result.status.message().find("byte offset " + std::to_string(pos)),
              std::string::npos)
        << t.name << ": " << result.ToString();
  }
}

TEST(FaultInjectionTest, WrongInstanceBlamesCryptographicCheck) {
  for (const Target& t : Targets()) {
    std::vector<std::vector<Fr>> wrong = t.instance;
    wrong[0][0] += Fr::One();
    const VerifyResult result = VerifyProof(t.vk, *t.pcs, wrong, t.proof);
    ASSERT_FALSE(result.ok()) << t.name;
    EXPECT_TRUE(result.stage == VerifyStage::kVanishingCheck ||
                result.stage == VerifyStage::kPcsOpening)
        << t.name << ": " << result.ToString();
    EXPECT_EQ(result.status.code(), StatusCode::kVerifyFailed) << t.name;
  }
}

TEST(FaultInjectionTest, WrongColumnCountBlamesInstance) {
  const Target& t = Targets()[0];
  const VerifyResult result = VerifyProof(t.vk, *t.pcs, {}, t.proof);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.stage, VerifyStage::kInstance) << result.ToString();
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
}

TEST(FaultInjectionTest, ResizedInstanceVectorBlamesInstance) {
  // The zkml-level verifier enforces the exact instance length recorded in
  // the vk, so a resized public-input vector is rejected before any
  // transcript work.
  Target t = Targets()[0];
  t.vk.num_instance_rows = 1;
  for (size_t n_values : {0u, 2u, 5u}) {
    std::vector<Fr> resized(n_values, t.instance[0][0]);
    const VerifyResult result = VerifyDetailed(t.vk, *t.pcs, resized, t.proof);
    ASSERT_FALSE(result.ok()) << n_values;
    EXPECT_EQ(result.stage, VerifyStage::kInstance) << result.ToString();
    EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument) << result.ToString();
  }
  // The honest length still verifies through the same path.
  const VerifyResult good = VerifyDetailed(t.vk, *t.pcs, t.instance[0], t.proof);
  EXPECT_TRUE(good.ok()) << good.ToString();
}

TEST(FaultInjectionTest, OversizedInstanceColumnRejected) {
  const Target& t = Targets()[0];
  std::vector<std::vector<Fr>> wrong = t.instance;
  wrong[0].assign(kN + 1, Fr::Zero());
  const VerifyResult result = VerifyProof(t.vk, *t.pcs, wrong, t.proof);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.stage, VerifyStage::kInstance) << result.ToString();
}

TEST(FaultInjectionTest, CrossCircuitProofRejected) {
  // A verbatim honest proof for a *different* circuit on the same backend
  // must not verify (and must not crash on structural mismatch).
  const std::vector<Target>& ts = Targets();
  for (size_t i = 0; i + 1 < ts.size(); i += 2) {
    const VerifyResult result = VerifyProof(ts[i].vk, *ts[i].pcs, ts[i].instance, ts[i + 1].proof);
    ASSERT_FALSE(result.ok()) << ts[i].name << " accepted " << ts[i + 1].name << "'s proof";
  }
}

TEST(FaultInjectionTest, CrossCircuitProofBlamesProofLength) {
  // Each mac proof against the cube vk and each cube proof against the mac
  // vk, under both backends: the length check rejects before any parsing.
  const std::vector<Target>& ts = Targets();
  for (size_t i = 0; i < ts.size(); ++i) {
    const Target& vk_side = ts[i];
    const Target& proof_side = ts[i ^ 1];  // the other circuit, same backend
    const VerifyResult result =
        VerifyProof(vk_side.vk, *vk_side.pcs, vk_side.instance, proof_side.proof);
    ASSERT_FALSE(result.ok()) << vk_side.name << " accepted " << proof_side.name << "'s proof";
    EXPECT_EQ(result.stage, VerifyStage::kProofLength)
        << proof_side.name << " proof, " << vk_side.name << " vk: " << result.ToString();
    EXPECT_EQ(result.status.code(), StatusCode::kMalformedProof);
    for (size_t bytes : {proof_side.proof.size(), vk_side.proof.size()}) {
      EXPECT_NE(result.status.message().find(std::to_string(bytes)), std::string::npos)
          << result.ToString();
    }
  }
}

// --- Composite artifacts: the same seeded corpus over ZKSH and ZKBP. ---

TEST(FaultInjectionTest, CompositeArtifactMutationsAllRejectedWithNamedStage) {
  QuantParams qp;
  qp.sf_bits = 5;
  qp.table_bits = 10;
  ModelBuilder mb("tiny-chain", Shape({6}), qp, 3);
  int t = mb.FullyConnected(mb.input(), 4);
  t = mb.Activation(t, NonlinFn::kRelu);
  const Model model = mb.Finish(mb.FullyConnected(t, 3));
  ZkmlOptions options;
  options.optimizer.min_columns = 10;
  options.optimizer.max_columns = 26;
  options.optimizer.max_k = 14;
  const Tensor<int64_t> in0 = QuantizeTensor(SyntheticInput(model, 5), model.quant);
  const Tensor<int64_t> in1 = QuantizeTensor(SyntheticInput(model, 6), model.quant);

  const StatusOr<CompiledShardedModel> sharded = CompileSharded(model, 2, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  const StatusOr<ProofPlan> shard_plan = PlanProof(model, 2, 0, options);
  ASSERT_TRUE(shard_plan.ok()) << shard_plan.status().ToString();
  const StatusOr<PlannedProof> sp = shard_plan->Prove(sharded->shards, {in0});
  ASSERT_TRUE(sp.ok()) << sp.status().ToString();
  const StatusOr<CompiledBatchedModel> batched = CompileBatched(model, 2, options);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  const StatusOr<ProofPlan> batch_plan = PlanProof(model, 1, 2, options);
  ASSERT_TRUE(batch_plan.ok()) << batch_plan.status().ToString();
  const StatusOr<PlannedProof> bp =
      batch_plan->Prove({std::make_shared<const CompiledModel>(batched->compiled)}, {in0, in1});
  ASSERT_TRUE(bp.ok()) << bp.status().ToString();

  struct CompositeTarget {
    std::string name;
    std::vector<uint8_t> artifact;
    std::function<VerifyResult(const std::vector<uint8_t>&)> verify;
  };
  const std::vector<CompositeTarget> targets = {
      {"zksh", sp->artifact,
       [&](const std::vector<uint8_t>& a) { return VerifySharded(*sharded, sp->instance, a); }},
      {"zkbp", bp->artifact,
       [&](const std::vector<uint8_t>& a) {
         return VerifyBatchedDetailed(*batched, bp->instance, a);
       }},
  };

  constexpr uint64_t kSeedsPerKind = 40;
  size_t cases = 0;
  std::set<VerifyStage> stages_seen;
  for (size_t ti = 0; ti < targets.size(); ++ti) {
    const CompositeTarget& target = targets[ti];
    ASSERT_TRUE(target.verify(target.artifact).ok()) << target.name;
    // Splice donor: the other composite kind.
    const std::vector<uint8_t>& donor = targets[ti ^ 1].artifact;
    for (MutationKind kind : kAllMutationKinds) {
      for (uint64_t seed = 0; seed < kSeedsPerKind; ++seed) {
        ProofMutator mutator(seed * 1000003 + static_cast<uint64_t>(kind) * 131 + 17);
        const std::vector<uint8_t> bad = mutator.Mutate(target.artifact, kind, donor);
        if (bad == target.artifact) continue;
        ++cases;
        // Planning a verifier from hostile bytes must not abort either.
        (void)PlanFromArtifact(model, bad, options);
        const VerifyResult result = target.verify(bad);
        ASSERT_FALSE(result.ok()) << target.name << " accepted a corrupted artifact (mutation "
                                  << MutationKindName(kind) << ", seed " << seed << ")";
        ASSERT_NE(result.stage, VerifyStage::kAccepted);
        stages_seen.insert(result.stage);
      }
    }
  }
  EXPECT_GE(cases, 500u);
  EXPECT_EQ(stages_seen.count(VerifyStage::kShardStitch), 1u);
  EXPECT_EQ(stages_seen.count(VerifyStage::kBatchStitch), 1u);
}

// --- Model-loader fuzz: random text corruption never crashes the parser. ---

TEST(FaultInjectionTest, ModelLoaderSurvivesRandomCorruption) {
  const std::string base =
      "model tiny quant 6 10\n"
      "input 1 4\n"
      "tensors 2 output 1\n"
      "weight 1 4 0.5 -0.25 1 2\n"
      "op 4 name add in 2 0 0 w 0 out 1 attrs 1 0 2 0 0 1 0 "
      "perm 0 shape 0 starts 0 sizes 0\n";
  ASSERT_TRUE(DeserializeModel(base).ok());
  Rng rng(42);
  size_t rejected = 0;
  for (int iter = 0; iter < 300; ++iter) {
    std::string text = base;
    const size_t n_edits = 1 + rng.NextBelow(8);
    for (size_t e = 0; e < n_edits; ++e) {
      const size_t pos = rng.NextBelow(text.size());
      switch (rng.NextBelow(3)) {
        case 0:
          text[pos] = static_cast<char>(rng.NextBelow(256));
          break;
        case 1:
          text.erase(pos, 1 + rng.NextBelow(4));
          break;
        default:
          text.insert(pos, 1, static_cast<char>(' ' + rng.NextBelow(95)));
          break;
      }
      if (text.empty()) {
        break;
      }
    }
    const StatusOr<Model> m = DeserializeModel(text);
    if (!m.ok()) {
      ++rejected;
      EXPECT_EQ(m.status().code(), StatusCode::kParseError) << m.status().ToString();
    }
  }
  // Random corruption of a text format overwhelmingly breaks the grammar;
  // the point of the loop is that every outcome is a Status, not an abort.
  EXPECT_GT(rejected, 250u);
}

}  // namespace
}  // namespace zkml
