// End-to-end tests of the Plonkish proving system on hand-built circuits:
// arithmetic gates, copy constraints, lookups, and both PCS backends.
#include <gtest/gtest.h>

#include <memory>

#include "src/base/rng.h"
#include "src/base/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/pcs/ipa.h"
#include "src/pcs/kzg.h"
#include "src/plonk/keygen.h"
#include "src/plonk/mock_prover.h"
#include "src/plonk/prover.h"
#include "src/plonk/verifier.h"

namespace zkml {
namespace {

constexpr int kTestK = 5;
constexpr size_t kTestN = 1u << kTestK;

std::unique_ptr<Pcs> MakePcs(PcsKind kind, size_t max_len) {
  if (kind == PcsKind::kKzg) {
    return std::make_unique<KzgPcs>(std::make_shared<KzgSetup>(KzgSetup::Create(max_len, 11)));
  }
  return std::make_unique<IpaPcs>(std::make_shared<IpaSetup>(IpaSetup::Create(max_len, 11)));
}

// A small "multiply-accumulate" circuit: rows with selector q enforce
// c = a * b + prev, chained via copy constraints, with the final value
// exposed through the instance column.
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
    Expression ea = Expression::Query(a);
    Expression eb = Expression::Query(b);
    Expression ec = Expression::Query(c);
    // q * (a*b + a - c) == 0 : c = a*b + a (use `a` as accumulator input).
    cs.AddGate("mac", q * (ea * eb + ea - ec));
  }

  // Computes chain: acc_{i+1} = acc_i * b_i + acc_i, exposes final acc.
  Assignment MakeAssignment(const std::vector<int64_t>& bs, bool tamper = false) const {
    Assignment asn(cs, kTestN);
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
    if (tamper) {
      asn.SetAdvice(c, bs.size() - 1, Fr::FromInt64(acc + 1));
    }
    asn.SetInstance(inst, 0, Fr::FromInt64(acc));
    asn.Copy(Cell{inst, 0}, Cell{c, static_cast<uint32_t>(bs.size() - 1)});
    return asn;
  }
};

TEST(MockProverTest, AcceptsValidMac) {
  MacCircuit circuit;
  Assignment asn = circuit.MakeAssignment({2, 3, 4, 5});
  MockProver mp(&circuit.cs, &asn);
  auto failures = mp.Verify();
  EXPECT_TRUE(failures.empty()) << (failures.empty() ? "" : failures[0].description);
}

TEST(MockProverTest, DetectsGateViolation) {
  MacCircuit circuit;
  Assignment asn = circuit.MakeAssignment({2, 3, 4, 5}, /*tamper=*/true);
  // Tampering breaks the last mac gate and the instance copy.
  MockProver mp(&circuit.cs, &asn);
  EXPECT_FALSE(mp.Verify().empty());
}

TEST(MockProverTest, DetectsCopyViolation) {
  MacCircuit circuit;
  Assignment asn = circuit.MakeAssignment({2, 3});
  asn.SetInstance(circuit.inst, 0, Fr::FromU64(999));
  MockProver mp(&circuit.cs, &asn);
  EXPECT_FALSE(mp.Verify().empty());
}

class PlonkE2eTest : public ::testing::TestWithParam<PcsKind> {};

TEST_P(PlonkE2eTest, MacProvesAndVerifies) {
  MacCircuit circuit;
  Assignment asn = circuit.MakeAssignment({2, 3, 4, 5, 6});
  auto pcs = MakePcs(GetParam(), kTestN);
  ProvingKey pk = Keygen(circuit.cs, asn, *pcs, kTestK);
  std::vector<uint8_t> proof = CreateProof(pk, *pcs, asn);
  EXPECT_FALSE(proof.empty());

  std::vector<std::vector<Fr>> instance = {{asn.instance()[0][0]}};
  const VerifyResult result = VerifyProof(pk.vk, *pcs, instance, proof);
  EXPECT_TRUE(result.ok()) << result.ToString();
}

TEST_P(PlonkE2eTest, WrongInstanceRejected) {
  MacCircuit circuit;
  Assignment asn = circuit.MakeAssignment({2, 3, 4});
  auto pcs = MakePcs(GetParam(), kTestN);
  ProvingKey pk = Keygen(circuit.cs, asn, *pcs, kTestK);
  std::vector<uint8_t> proof = CreateProof(pk, *pcs, asn);

  std::vector<std::vector<Fr>> wrong = {{asn.instance()[0][0] + Fr::One()}};
  const VerifyResult result = VerifyProof(pk.vk, *pcs, wrong, proof);
  EXPECT_FALSE(result.ok());
  // A false statement with honest proof bytes must be blamed on a
  // cryptographic check, not on malformed bytes.
  EXPECT_TRUE(result.stage == VerifyStage::kVanishingCheck ||
              result.stage == VerifyStage::kPcsOpening)
      << result.ToString();
}

TEST_P(PlonkE2eTest, CorruptedProofRejected) {
  MacCircuit circuit;
  Assignment asn = circuit.MakeAssignment({7, 1, 2});
  auto pcs = MakePcs(GetParam(), kTestN);
  ProvingKey pk = Keygen(circuit.cs, asn, *pcs, kTestK);
  std::vector<uint8_t> proof = CreateProof(pk, *pcs, asn);

  std::vector<std::vector<Fr>> instance = {{asn.instance()[0][0]}};
  for (size_t pos : {proof.size() / 4, proof.size() / 2, proof.size() - 8}) {
    std::vector<uint8_t> bad = proof;
    bad[pos] ^= 0x21;
    EXPECT_FALSE(VerifyProof(pk.vk, *pcs, instance, bad).ok()) << "pos=" << pos;
  }
}

// Lookup circuit: advice column v, selector q; q-gated rows must satisfy
// (v, v^3 mod table) in a cube lookup table.
struct CubeLookupCircuit {
  ConstraintSystem cs;
  Column inst, v, w, sel, tbl_in, tbl_out;
  static constexpr int64_t kTableSize = 16;

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

  Assignment MakeAssignment(const std::vector<int64_t>& xs, bool tamper = false) const {
    Assignment asn(cs, kTestN);
    // Table: (i, i^3) for i in [0, kTableSize); contains (0,0) so disabled
    // rows (contributing the zero tuple) are always valid.
    for (int64_t i = 0; i < kTableSize; ++i) {
      asn.SetFixed(tbl_in, static_cast<size_t>(i), Fr::FromInt64(i));
      asn.SetFixed(tbl_out, static_cast<size_t>(i), Fr::FromInt64(i * i * i));
    }
    for (size_t i = 0; i < xs.size(); ++i) {
      asn.SetFixed(sel, i, Fr::One());
      asn.SetAdvice(v, i, Fr::FromInt64(xs[i]));
      int64_t cube = xs[i] * xs[i] * xs[i];
      asn.SetAdvice(w, i, Fr::FromInt64(tamper && i == 1 ? cube + 1 : cube));
    }
    asn.SetInstance(inst, 0, asn.Get(w, 0));
    asn.Copy(Cell{inst, 0}, Cell{w, 0});
    return asn;
  }
};

TEST(MockProverTest, LookupAcceptsValid) {
  CubeLookupCircuit circuit;
  Assignment asn = circuit.MakeAssignment({1, 2, 3, 5, 15});
  MockProver mp(&circuit.cs, &asn);
  auto failures = mp.Verify();
  EXPECT_TRUE(failures.empty()) << (failures.empty() ? "" : failures[0].description);
}

TEST(MockProverTest, LookupDetectsViolation) {
  CubeLookupCircuit circuit;
  Assignment asn = circuit.MakeAssignment({1, 2, 3}, /*tamper=*/true);
  MockProver mp(&circuit.cs, &asn);
  EXPECT_FALSE(mp.Verify().empty());
}

TEST(MockProverTest, LookupFailureBlamesArgumentAndRow) {
  CubeLookupCircuit circuit;
  // MakeAssignment's tamper corrupts the cube of the second enabled row.
  Assignment asn = circuit.MakeAssignment({1, 2, 3}, /*tamper=*/true);
  MockProver mp(&circuit.cs, &asn);
  auto failures = mp.Verify();
  ASSERT_FALSE(failures.empty());
  const ConstraintFailure& f = failures[0];
  EXPECT_EQ(f.kind, ConstraintKind::kLookup);
  EXPECT_EQ(f.constraint_index, 0);  // the circuit's only lookup argument
  EXPECT_EQ(f.row, 1);               // first failing row is the tampered one
  EXPECT_EQ(f.table_column_index, 0);
  EXPECT_EQ(f.table_column, circuit.tbl_in);  // table identified by its first column
}

TEST(MockProverTest, GateFailureBlamesGateAndRow) {
  MacCircuit circuit;
  Assignment asn = circuit.MakeAssignment({2, 3, 4, 5}, /*tamper=*/true);
  MockProver mp(&circuit.cs, &asn);
  auto failures = mp.Verify();
  ASSERT_FALSE(failures.empty());
  EXPECT_EQ(failures[0].kind, ConstraintKind::kGate);
  EXPECT_EQ(failures[0].constraint_index, 0);  // the "mac" gate
  EXPECT_EQ(failures[0].row, 3);               // tampered last chain row
}

TEST(MockProverTest, CopyFailureReportsRowPair) {
  MacCircuit circuit;
  Assignment asn = circuit.MakeAssignment({2, 3});
  asn.SetInstance(circuit.inst, 0, Fr::FromU64(999));
  MockProver mp(&circuit.cs, &asn);
  auto failures = mp.Verify();
  ASSERT_FALSE(failures.empty());
  EXPECT_EQ(failures[0].kind, ConstraintKind::kCopy);
  EXPECT_GE(failures[0].row_a, 0);
  EXPECT_GE(failures[0].row_b, 0);
}

TEST_P(PlonkE2eTest, LookupProvesAndVerifies) {
  CubeLookupCircuit circuit;
  Assignment asn = circuit.MakeAssignment({1, 2, 3, 5, 15, 7, 7, 7});
  auto pcs = MakePcs(GetParam(), kTestN);
  ProvingKey pk = Keygen(circuit.cs, asn, *pcs, kTestK);
  std::vector<uint8_t> proof = CreateProof(pk, *pcs, asn);
  std::vector<std::vector<Fr>> instance = {{asn.instance()[0][0]}};
  const VerifyResult result = VerifyProof(pk.vk, *pcs, instance, proof);
  EXPECT_TRUE(result.ok()) << result.ToString();
}

TEST_P(PlonkE2eTest, ProofsAreDeterministic) {
  MacCircuit circuit;
  Assignment asn = circuit.MakeAssignment({3, 1, 4});
  auto pcs = MakePcs(GetParam(), kTestN);
  ProvingKey pk = Keygen(circuit.cs, asn, *pcs, kTestK);
  EXPECT_EQ(CreateProof(pk, *pcs, asn), CreateProof(pk, *pcs, asn));
}

INSTANTIATE_TEST_SUITE_P(Backends, PlonkE2eTest,
                         ::testing::Values(PcsKind::kKzg, PcsKind::kIpa),
                         [](const ::testing::TestParamInfo<PcsKind>& info) {
                           return info.param == PcsKind::kKzg ? "Kzg" : "Ipa";
                         });

TEST(ConstraintSystemTest, DegreeAndChunks) {
  ConstraintSystem cs;
  Column a = cs.AddAdviceColumn(true);
  Column b = cs.AddAdviceColumn(true);
  Column c = cs.AddAdviceColumn(true);
  Column d = cs.AddAdviceColumn(true);
  Expression ea = Expression::Query(a);
  cs.AddGate("deg5", ea * ea * ea * ea * ea);
  EXPECT_EQ(cs.MaxDegree(), 5);
  EXPECT_EQ(cs.PermutationChunkSize(), 3);
  EXPECT_EQ(cs.NumPermutationChunks(), 2u);  // 4 columns / chunk 3
  EXPECT_EQ(cs.QuotientExtensionK(), 2);     // ceil(log2(4))
  (void)b;
  (void)c;
  (void)d;
}

TEST(ExpressionTest, DegreeAndQueries) {
  ConstraintSystem cs;
  Column a = cs.AddAdviceColumn(false);
  Column f = cs.AddFixedColumn();
  Expression e = Expression::Query(f) * (Expression::Query(a) * Expression::Query(a) +
                                         Expression::Constant(Fr::FromU64(7)));
  EXPECT_EQ(e.Degree(), 3);
  std::set<ColumnQuery> qs;
  e.CollectQueries(&qs);
  EXPECT_EQ(qs.size(), 2u);
  const Fr got = e.Evaluate([&](const ColumnQuery& q) {
    return q.column.type == ColumnType::kFixed ? Fr::FromU64(2) : Fr::FromU64(3);
  });
  EXPECT_EQ(got, Fr::FromU64(2 * (9 + 7)));
}

// Keygens on one cold backend run as pool tasks, with more of them than the
// pool has workers, and each fans its column commits out again. The first to
// reach the Lagrange table builds it while the others wait; the builder must
// finish alone, so every keygen completes with identical keys and one build.
TEST(KeygenTest, FanOutFillingThePoolBuildsTheTableOnce) {
  constexpr int kK = 10;  // large enough that the table build runs in parallel
  constexpr size_t kN = static_cast<size_t>(1) << kK;
  const size_t workers = ThreadPool::Global().num_threads();
  ConstraintSystem cs;
  const Column a = cs.AddAdviceColumn(/*equality_enabled=*/true);
  std::vector<Column> fixed;
  for (size_t i = 0; i < 2 * workers + 1; ++i) {
    fixed.push_back(cs.AddFixedColumn());
  }
  cs.AddGate("zero", Expression::Query(fixed[0]) * Expression::Query(a));
  Assignment asn(cs, kN);
  Rng rng(40);
  for (const Column& f : fixed) {
    for (size_t r = 0; r < kN; ++r) {
      asn.SetFixed(f, r, Fr::Random(rng));
    }
  }
  const KzgPcs pcs(std::make_shared<KzgSetup>(KzgSetup::Create(kN, 40)));
  auto& builds = obs::MetricsRegistry::Global().counter("pcs.lagrange_basis_builds");
  const uint64_t before = builds.Value();
  std::vector<ProvingKey> pks(workers + 1);
  {
    TaskGroup group;
    for (size_t t = 0; t < pks.size(); ++t) {
      group.Submit([&, t] { pks[t] = Keygen(cs, asn, pcs, kK); });
    }
  }
  EXPECT_EQ(builds.Value() - before, 1u);
  for (const ProvingKey& pk : pks) {
    ASSERT_EQ(pk.vk.fixed_commitments.size(), fixed.size());
    for (size_t i = 0; i < fixed.size(); ++i) {
      EXPECT_EQ(pk.vk.fixed_commitments[i], pcs.Commit(pk.fixed_coeffs[i])) << "column " << i;
    }
  }
}

}  // namespace
}  // namespace zkml
