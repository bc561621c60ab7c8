// Proving-system edge cases: circuits with no lookups, no copy constraints,
// rotation-using gates, multiple lookups over one table, and degenerate
// sizes.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/pcs/kzg.h"
#include "src/plonk/keygen.h"
#include "src/plonk/mock_prover.h"
#include "src/plonk/prover.h"
#include "src/plonk/verifier.h"

namespace zkml {
namespace {

constexpr int kK = 5;
constexpr size_t kN = 1u << kK;

std::unique_ptr<Pcs> MakeKzg() {
  return std::make_unique<KzgPcs>(std::make_shared<KzgSetup>(KzgSetup::Create(kN, 3)));
}

bool ProveAndVerify(const ConstraintSystem& cs, const Assignment& asn,
                    const std::vector<std::vector<Fr>>& instance) {
  auto pcs = MakeKzg();
  ProvingKey pk = Keygen(cs, asn, *pcs, kK);
  const std::vector<uint8_t> proof = CreateProof(pk, *pcs, asn);
  return VerifyProof(pk.vk, *pcs, instance, proof).ok();
}

TEST(PlonkEdgeTest, NoLookupsNoCopies) {
  // Pure arithmetic circuit: a*b == c on selector-gated rows, nothing else.
  ConstraintSystem cs;
  Column a = cs.AddAdviceColumn(false);
  Column b = cs.AddAdviceColumn(false);
  Column c = cs.AddAdviceColumn(false);
  Column sel = cs.AddFixedColumn();
  cs.AddGate("mul", Expression::Query(sel) * (Expression::Query(a) * Expression::Query(b) -
                                              Expression::Query(c)));
  Assignment asn(cs, kN);
  for (size_t r = 0; r < 10; ++r) {
    asn.SetFixed(sel, r, Fr::One());
    asn.SetAdvice(a, r, Fr::FromU64(r + 1));
    asn.SetAdvice(b, r, Fr::FromU64(r + 2));
    asn.SetAdvice(c, r, Fr::FromU64((r + 1) * (r + 2)));
  }
  EXPECT_TRUE(MockProver(&cs, &asn).IsSatisfied());
  EXPECT_TRUE(ProveAndVerify(cs, asn, {}));
}

TEST(PlonkEdgeTest, RotationGateAcrossRows) {
  // Fibonacci-style: f(r+2) = f(r+1) + f(r) via rotations, anchored to the
  // instance by copy constraints.
  ConstraintSystem cs;
  Column inst = cs.AddInstanceColumn();
  Column f = cs.AddAdviceColumn(true);
  Column sel = cs.AddFixedColumn();
  cs.AddGate("fib", Expression::Query(sel) * (Expression::Query(f, 2) - Expression::Query(f, 1) -
                                              Expression::Query(f, 0)));
  Assignment asn(cs, kN);
  uint64_t x0 = 1, x1 = 1;
  asn.SetAdvice(f, 0, Fr::FromU64(x0));
  asn.SetAdvice(f, 1, Fr::FromU64(x1));
  const size_t steps = 10;
  for (size_t r = 0; r + 2 < steps + 2; ++r) {
    asn.SetFixed(sel, r, Fr::One());
    const uint64_t next = x0 + x1;
    asn.SetAdvice(f, r + 2, Fr::FromU64(next));
    x0 = x1;
    x1 = next;
  }
  asn.SetInstance(inst, 0, Fr::FromU64(x1));
  asn.Copy(Cell{inst, 0}, Cell{f, static_cast<uint32_t>(steps + 1)});
  EXPECT_TRUE(MockProver(&cs, &asn).IsSatisfied());
  EXPECT_TRUE(ProveAndVerify(cs, asn, {{Fr::FromU64(x1)}}));
  // Wrong claimed Fibonacci number fails.
  EXPECT_FALSE(ProveAndVerify(cs, asn, {{Fr::FromU64(x1 + 1)}}));
}

TEST(PlonkEdgeTest, TwoLookupsOneTable) {
  ConstraintSystem cs;
  Column a = cs.AddAdviceColumn(false);
  Column b = cs.AddAdviceColumn(false);
  Column sel = cs.AddFixedColumn();
  Column tbl = cs.AddFixedColumn();
  Expression q = Expression::Query(sel);
  cs.AddLookup("range-a", {q * Expression::Query(a)}, {tbl});
  cs.AddLookup("range-b", {q * Expression::Query(b)}, {tbl});
  Assignment asn(cs, kN);
  for (size_t r = 0; r < 16; ++r) {
    asn.SetFixed(tbl, r, Fr::FromU64(r));  // table [0, 16)
  }
  for (size_t r = 0; r < 8; ++r) {
    asn.SetFixed(sel, r, Fr::One());
    asn.SetAdvice(a, r, Fr::FromU64(r));
    asn.SetAdvice(b, r, Fr::FromU64(15 - r));
  }
  EXPECT_TRUE(MockProver(&cs, &asn).IsSatisfied());
  EXPECT_TRUE(ProveAndVerify(cs, asn, {}));

  // Out-of-range value detected by both mock and real prover paths.
  asn.SetAdvice(b, 3, Fr::FromU64(99));
  EXPECT_FALSE(MockProver(&cs, &asn).IsSatisfied());
}

TEST(PlonkEdgeTest, ManyPermutationColumnsChunking) {
  // Enough equality columns to force several grand-product chunks.
  ConstraintSystem cs;
  Column inst = cs.AddInstanceColumn();
  std::vector<Column> cols;
  for (int i = 0; i < 9; ++i) {
    cols.push_back(cs.AddAdviceColumn(true));
  }
  Column sel = cs.AddFixedColumn();
  // Gate of degree 5 => chunk size 3 => (9+1+...) columns over several chunks.
  Expression x = Expression::Query(cols[0]);
  cs.AddGate("deg5", Expression::Query(sel) * x * x * x * x);
  EXPECT_GE(cs.NumPermutationChunks(), 3u);

  Assignment asn(cs, kN);
  Rng rng(7);
  // A chain of equalities across all columns.
  const Fr v = Fr::Random(rng);
  for (size_t i = 0; i < cols.size(); ++i) {
    asn.SetAdvice(cols[i], i + 1, v);
    if (i > 0) {
      asn.Copy(Cell{cols[i - 1], static_cast<uint32_t>(i)},
               Cell{cols[i], static_cast<uint32_t>(i + 1)});
    }
  }
  asn.SetInstance(inst, 0, v);
  asn.Copy(Cell{inst, 0}, Cell{cols[0], 1});
  EXPECT_TRUE(MockProver(&cs, &asn).IsSatisfied());
  EXPECT_TRUE(ProveAndVerify(cs, asn, {{v}}));
  EXPECT_FALSE(ProveAndVerify(cs, asn, {{v + Fr::One()}}));
}

TEST(PlonkEdgeTest, EmptyCircuitStillRoundTrips) {
  ConstraintSystem cs;
  (void)cs.AddAdviceColumn(false);
  Assignment asn(cs, kN);
  EXPECT_TRUE(MockProver(&cs, &asn).IsSatisfied());
  EXPECT_TRUE(ProveAndVerify(cs, asn, {}));
}

// Proves without the abort wrapper, so an unsatisfied witness comes back as
// a Status.
StatusOr<std::vector<uint8_t>> TryProve(const ConstraintSystem& cs, const Assignment& asn) {
  auto pcs = MakeKzg();
  ProvingKey pk = Keygen(cs, asn, *pcs, kK);
  return CreateProofCancellable(pk, *pcs, asn, /*cancel=*/nullptr, /*metrics=*/nullptr);
}

TEST(PlonkEdgeTest, LookupHelperWhoseModeIsZero) {
  // Every row looks up its own table value once, so h = 1/(beta+f) - m/(beta+t)
  // is 0 on all rows but the few that repeat a value: its most frequent value
  // is 0, and the running sum S is committed as Commit(S - 0*I).
  ConstraintSystem cs;
  Column a = cs.AddAdviceColumn(false);
  Column sel = cs.AddFixedColumn();
  Column tbl = cs.AddFixedColumn();
  cs.AddLookup("identity", {Expression::Query(sel) * Expression::Query(a)}, {tbl});
  Assignment asn(cs, kN);
  for (size_t r = 0; r < kN; ++r) {
    asn.SetFixed(tbl, r, Fr::FromU64(r));
    asn.SetFixed(sel, r, Fr::One());
    asn.SetAdvice(a, r, Fr::FromU64(r < 4 ? 5 : r));
  }
  EXPECT_TRUE(MockProver(&cs, &asn).IsSatisfied());
  EXPECT_TRUE(ProveAndVerify(cs, asn, {}));
}

TEST(PlonkEdgeTest, OffTableLookupInputIsAnErrorNamingTheLookup) {
  ConstraintSystem cs;
  Column a = cs.AddAdviceColumn(false);
  Column b = cs.AddAdviceColumn(false);
  Column sel = cs.AddFixedColumn();
  Column tbl = cs.AddFixedColumn();
  Expression q = Expression::Query(sel);
  cs.AddLookup("range-a", {q * Expression::Query(a)}, {tbl});
  cs.AddLookup("range-b", {q * Expression::Query(b)}, {tbl});
  Assignment asn(cs, kN);
  for (size_t r = 0; r < 16; ++r) {
    asn.SetFixed(tbl, r, Fr::FromU64(r));
  }
  for (size_t r = 0; r < 8; ++r) {
    asn.SetFixed(sel, r, Fr::One());
    asn.SetAdvice(a, r, Fr::FromU64(r));
    asn.SetAdvice(b, r, Fr::FromU64(15 - r));
  }
  asn.SetAdvice(b, 3, Fr::FromU64(99));
  const StatusOr<std::vector<uint8_t>> proof = TryProve(cs, asn);
  ASSERT_FALSE(proof.ok());
  EXPECT_EQ(proof.status().code(), StatusCode::kUnsatisfied);
  EXPECT_NE(proof.status().message().find("lookup 'range-b' input missing: row 3"),
            std::string::npos)
      << proof.status().ToString();
}

TEST(PlonkEdgeTest, BrokenCopyIsAnErrorNamingTheChunk) {
  // No lookups: round 3 commits only the permutation products.
  ConstraintSystem cs;
  std::vector<Column> cols;
  for (int i = 0; i < 9; ++i) {
    cols.push_back(cs.AddAdviceColumn(true));
  }
  Column sel = cs.AddFixedColumn();
  Expression x = Expression::Query(cols[0]);
  cs.AddGate("deg5", Expression::Query(sel) * x * x * x * x);
  ASSERT_GE(cs.NumPermutationChunks(), 3u);
  Assignment asn(cs, kN);
  for (size_t i = 1; i < cols.size(); ++i) {
    asn.SetAdvice(cols[i - 1], 2, Fr::FromU64(i));
    asn.SetAdvice(cols[i], 3, Fr::FromU64(i));
    asn.Copy(Cell{cols[i - 1], 2}, Cell{cols[i], 3});
  }
  ASSERT_TRUE(TryProve(cs, asn).ok());

  asn.SetAdvice(cols[8], 3, Fr::FromU64(100));  // breaks the last copy only
  const StatusOr<std::vector<uint8_t>> proof = TryProve(cs, asn);
  ASSERT_FALSE(proof.ok());
  EXPECT_EQ(proof.status().code(), StatusCode::kUnsatisfied);
  const std::string& msg = proof.status().message();
  const std::string chunk = std::to_string(7 / cs.PermutationChunkSize());
  EXPECT_NE(msg.find("copy constraints inconsistent with witness: permutation chunk " + chunk +
                     ":"),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find("advice 7 row 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("advice 8 row 3"), std::string::npos) << msg;
}

}  // namespace
}  // namespace zkml
