#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/ec/g1.h"
#include "src/ec/glv.h"

namespace zkml {
namespace {

TEST(G1Test, GeneratorOnCurve) {
  EXPECT_TRUE(G1Affine::Generator().IsOnCurve());
  EXPECT_TRUE(G1Affine::Identity().IsOnCurve());
}

TEST(G1Test, GroupLaws) {
  Rng rng(1);
  G1 g = G1::Generator();
  G1 a = g.ScalarMul(Fr::Random(rng));
  G1 b = g.ScalarMul(Fr::Random(rng));
  G1 c = g.ScalarMul(Fr::Random(rng));
  EXPECT_EQ((a + b) + c, a + (b + c));
  EXPECT_EQ(a + b, b + a);
  EXPECT_EQ(a + G1::Identity(), a);
  EXPECT_EQ(a + a.Neg(), G1::Identity());
  EXPECT_EQ(a.Double(), a + a);
}

TEST(G1Test, MixedAddMatchesFullAdd) {
  Rng rng(2);
  G1 a = G1::Generator().ScalarMul(Fr::Random(rng));
  G1 b = G1::Generator().ScalarMul(Fr::Random(rng));
  G1Affine b_aff = b.ToAffine();
  EXPECT_EQ(a.AddMixed(b_aff), a + b);
  EXPECT_EQ(G1::Identity().AddMixed(b_aff), b);
  EXPECT_EQ(a.AddMixed(G1Affine::Identity()), a);
  // Doubling path.
  EXPECT_EQ(b.AddMixed(b_aff), b.Double());
  // Cancellation path.
  EXPECT_EQ(b.Neg().AddMixed(b_aff), G1::Identity());
}

TEST(G1Test, ScalarMulLinearity) {
  Rng rng(3);
  Fr s = Fr::Random(rng);
  Fr t = Fr::Random(rng);
  G1 g = G1::Generator();
  EXPECT_EQ(g.ScalarMul(s) + g.ScalarMul(t), g.ScalarMul(s + t));
  EXPECT_EQ(g.ScalarMul(s).ScalarMul(t), g.ScalarMul(s * t));
  EXPECT_EQ(g.ScalarMul(Fr::Zero()), G1::Identity());
  EXPECT_EQ(g.ScalarMul(Fr::One()), g);
}

TEST(G1Test, GroupOrderAnnihilates) {
  // [p]G == identity where p is the Fr modulus: multiply by p-1 and add G.
  U256 p_minus_1;
  SubU256(FrParams::Modulus(), U256::FromU64(1), &p_minus_1);
  G1 g = G1::Generator();
  G1 acc = g.ScalarMul(Fr::FromCanonical(p_minus_1).Neg().Neg());  // p-1 as field elt
  // Fr arithmetic reduces mod p, so instead mul by canonical p-1 directly:
  // ScalarMul uses the canonical form, and FromCanonical(p-1) keeps it.
  EXPECT_EQ(acc + g, G1::Identity());
}

TEST(G1Test, GeneratorMulMatchesScalarMul) {
  const G1 g = G1::Generator();
  U256 p_minus_1;
  SubU256(FrParams::Modulus(), U256::FromU64(1), &p_minus_1);
  // Edge scalars: zero, one, every byte 0xff up to the top window, r - 1.
  std::vector<Fr> scalars = {Fr::Zero(), Fr::One(), Fr::FromU64(255), Fr::FromU64(256),
                             Fr::FromU64(~0ULL), Fr::FromCanonical(p_minus_1)};
  Rng rng(4);
  for (int i = 0; i < 64; ++i) {
    scalars.push_back(Fr::Random(rng));
  }
  for (const Fr& s : scalars) {
    EXPECT_EQ(GeneratorMul(s), g.ScalarMul(s));
  }
}

TEST(G1Test, AffineRoundTrip) {
  Rng rng(4);
  for (int t = 0; t < 10; ++t) {
    G1 a = G1::Generator().ScalarMul(Fr::Random(rng));
    G1Affine aff = a.ToAffine();
    EXPECT_TRUE(aff.IsOnCurve());
    EXPECT_EQ(G1::FromAffine(aff), a);
  }
}

TEST(G1Test, SerializeRoundTrip) {
  Rng rng(5);
  for (int t = 0; t < 10; ++t) {
    G1Affine p = G1::Generator().ScalarMul(Fr::Random(rng)).ToAffine();
    auto bytes = p.Serialize();
    G1Affine back;
    ASSERT_TRUE(G1Affine::Deserialize(bytes.data(), &back));
    EXPECT_EQ(back, p);
  }
  auto id_bytes = G1Affine::Identity().Serialize();
  G1Affine back;
  ASSERT_TRUE(G1Affine::Deserialize(id_bytes.data(), &back));
  EXPECT_TRUE(back.infinity);
}

TEST(G1Test, DeserializeRejectsGarbage) {
  std::array<uint8_t, 33> bytes{};
  bytes[0] = 7;  // invalid flag
  G1Affine out;
  EXPECT_FALSE(G1Affine::Deserialize(bytes.data(), &out));
  bytes[0] = 2;
  for (int i = 1; i < 33; ++i) {
    bytes[i] = 0xff;  // x >= q
  }
  EXPECT_FALSE(G1Affine::Deserialize(bytes.data(), &out));
}

class MsmTest : public ::testing::TestWithParam<size_t> {};

TEST_P(MsmTest, MatchesNaive) {
  const size_t n = GetParam();
  Rng rng(100 + n);
  std::vector<G1Affine> bases(n);
  std::vector<Fr> scalars(n);
  G1 expected;
  for (size_t i = 0; i < n; ++i) {
    bases[i] = G1::Generator().ScalarMul(Fr::Random(rng)).ToAffine();
    scalars[i] = Fr::Random(rng);
    expected += G1::FromAffine(bases[i]).ScalarMul(scalars[i]);
  }
  EXPECT_EQ(Msm(bases, scalars), expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MsmTest, ::testing::Values(0, 1, 2, 31, 32, 33, 100, 257));

TEST(MsmTest, HandlesZeroAndOneScalars) {
  Rng rng(9);
  std::vector<G1Affine> bases(64);
  std::vector<Fr> scalars(64, Fr::Zero());
  for (auto& b : bases) {
    b = G1::Generator().ScalarMul(Fr::Random(rng)).ToAffine();
  }
  EXPECT_EQ(Msm(bases, scalars), G1::Identity());
  scalars[5] = Fr::One();
  EXPECT_EQ(Msm(bases, scalars), G1::FromAffine(bases[5]));
}

// Edge scalars stress the signed-digit recoding: 0 and 1 produce mostly-empty
// windows, r-1 = -1 exercises the carry chain through every window, and
// duplicated bases force long per-bucket affine-addition chains (including
// the p == q doubling case inside the batched-affine reducer).
TEST(MsmTest, EdgeScalarsAndDuplicateBases) {
  Rng rng(17);
  const Fr r_minus_1 = Fr::Zero() - Fr::One();
  const size_t n = 128;
  std::vector<G1Affine> bases(n);
  std::vector<Fr> scalars(n);
  const G1Affine dup = G1::Generator().ScalarMul(Fr::Random(rng)).ToAffine();
  for (size_t i = 0; i < n; ++i) {
    // Half the bases identical, the rest random.
    bases[i] = (i % 2 == 0) ? dup : G1::Generator().ScalarMul(Fr::Random(rng)).ToAffine();
    switch (i % 4) {
      case 0: scalars[i] = Fr::Zero(); break;
      case 1: scalars[i] = Fr::One(); break;
      case 2: scalars[i] = r_minus_1; break;
      default: scalars[i] = Fr::Random(rng); break;
    }
  }
  // Duplicate scalars too, so buckets collide on identical points.
  scalars[7] = scalars[3];
  G1 expected;
  for (size_t i = 0; i < n; ++i) {
    expected += G1::FromAffine(bases[i]).ScalarMul(scalars[i]);
  }
  EXPECT_EQ(Msm(bases, scalars), expected);
}

// Sizes straddling the naive/Pippenger cutoff (n = 32) must agree with the
// naive sum on both sides of the branch.
TEST(MsmTest, CutoffStraddlingSizes) {
  for (size_t n : {size_t{30}, size_t{31}, size_t{32}, size_t{33}, size_t{34}, size_t{64}}) {
    Rng rng(200 + n);
    std::vector<G1Affine> bases(n);
    std::vector<Fr> scalars(n);
    G1 expected;
    for (size_t i = 0; i < n; ++i) {
      bases[i] = G1::Generator().ScalarMul(Fr::Random(rng)).ToAffine();
      scalars[i] = Fr::Random(rng);
      expected += G1::FromAffine(bases[i]).ScalarMul(scalars[i]);
    }
    EXPECT_EQ(Msm(bases.data(), scalars.data(), n), expected) << "n=" << n;
  }
}

// The point-range chunking axis must not change the result: run the internal
// implementation with several chunk counts (and window widths) and compare
// against the single-chunk answer.
TEST(MsmTest, ChunkedImplMatchesUnchunked) {
  const size_t n = 500;
  Rng rng(33);
  std::vector<G1Affine> bases(n);
  std::vector<Fr> scalars(n);
  for (size_t i = 0; i < n; ++i) {
    bases[i] = G1::Generator().ScalarMul(Fr::Random(rng)).ToAffine();
    scalars[i] = Fr::Random(rng);
  }
  for (int c : {4, 8, 12}) {
    const G1 ref = internal::MsmImpl(bases.data(), scalars.data(), n, c, 1);
    for (size_t chunks : {size_t{2}, size_t{3}, size_t{7}}) {
      EXPECT_EQ(internal::MsmImpl(bases.data(), scalars.data(), n, c, chunks), ref)
          << "c=" << c << " chunks=" << chunks;
    }
    EXPECT_EQ(ref, Msm(bases, scalars)) << "c=" << c;
  }
}

TEST(DeriveGeneratorsTest, DeterministicAndOnCurve) {
  auto a = DeriveGenerators(42, 16);
  auto b = DeriveGenerators(42, 16);
  auto c = DeriveGenerators(43, 16);
  ASSERT_EQ(a.size(), 16u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].IsOnCurve());
    EXPECT_EQ(a[i], b[i]);
    EXPECT_FALSE(a[i] == c[i]);
    for (size_t j = 0; j < i; ++j) {
      EXPECT_FALSE(a[i] == a[j]);
    }
  }
}

Fr GlvSignedToFr(const U256& mag, bool neg) {
  const Fr f = Fr::FromCanonical(mag);
  return neg ? f.Neg() : f;
}

// Every decomposition must satisfy k == k1 + lambda*k2 (mod r) exactly, with
// both halves short enough for the MSM's halved window coverage.
TEST(GlvTest, DecompositionRecomposesAndIsShort) {
  const Glv& glv = Glv::Get();
  Rng rng(71);
  auto check = [&](const Fr& k) {
    const GlvDecomposed d = glv.Decompose(k);
    EXPECT_EQ(GlvSignedToFr(d.k1, d.k1_neg) + glv.lambda() * GlvSignedToFr(d.k2, d.k2_neg), k)
        << "k=" << k.ToCanonical().ToHex();
    EXPECT_LT(d.k1.HighestBit(), Glv::kGlvBits) << "k=" << k.ToCanonical().ToHex();
    EXPECT_LT(d.k2.HighestBit(), Glv::kGlvBits) << "k=" << k.ToCanonical().ToHex();
    // Sign-magnitude invariant: zero is never flagged negative.
    if (d.k1.IsZero()) {
      EXPECT_FALSE(d.k1_neg);
    }
    if (d.k2.IsZero()) {
      EXPECT_FALSE(d.k2_neg);
    }
  };
  // Edge cases: 0, 1, r-1, lambda itself (decomposes to (0, 1)-shaped
  // vectors), and values straddling the sign folds.
  check(Fr::Zero());
  check(Fr::One());
  check(Fr::Zero() - Fr::One());
  check(glv.lambda());
  check(glv.lambda().Neg());
  check(glv.lambda() + Fr::One());
  for (int trial = 0; trial < 500; ++trial) {
    check(Fr::Random(rng));
  }
}

// The endomorphism phi(x, y) = (beta*x, y) must act as scalar multiplication
// by lambda on arbitrary group elements, not just the generator it was
// calibrated against.
TEST(GlvTest, EndomorphismActsAsLambda) {
  const Glv& glv = Glv::Get();
  Rng rng(72);
  for (int trial = 0; trial < 8; ++trial) {
    const G1Affine p = G1::Generator().ScalarMul(Fr::Random(rng)).ToAffine();
    const G1Affine phi{glv.beta() * p.x, p.y, p.infinity};
    EXPECT_TRUE(phi.IsOnCurve());
    EXPECT_EQ(G1::FromAffine(phi), G1::FromAffine(p).ScalarMul(glv.lambda()));
  }
}

// MSM straddling the serial-fallback threshold and exercising scalars whose
// GLV halves carry both signs must match the naive sum.
TEST(GlvTest, MsmMatchesNaiveAcrossScalarShapes) {
  const Glv& glv = Glv::Get();
  Rng rng(73);
  const size_t n = 64;
  std::vector<G1Affine> bases(n);
  std::vector<Fr> scalars(n);
  G1 expected;
  for (size_t i = 0; i < n; ++i) {
    bases[i] = G1::Generator().ScalarMul(Fr::Random(rng)).ToAffine();
    switch (i % 5) {
      case 0:
        scalars[i] = Fr::Random(rng);
        break;
      case 1:
        scalars[i] = Fr::Zero() - Fr::Random(rng);
        break;
      case 2:
        scalars[i] = glv.lambda() * Fr::FromU64(i + 1);
        break;
      case 3:
        scalars[i] = Fr::FromU64(i);
        break;
      default:
        scalars[i] = glv.lambda().Neg() + Fr::FromU64(i);
        break;
    }
    expected += G1::FromAffine(bases[i]).ScalarMul(scalars[i]);
  }
  EXPECT_EQ(Msm(bases, scalars), expected);
}

// Adversarial bucket shapes for the batched-affine reduction: a single
// repeated base with clustered signed scalars packs long chains full of
// doublings and exact cancellations (P paired with -P kills a slot), so
// later rounds see dead slots mid-chain — the cases where a pass-through
// copy's destination aliases an earlier pair's still-needed source.
TEST(GlvTest, MsmHandlesRepeatedBasesAndCancellations) {
  Rng rng(91);
  const G1Affine g = G1::Generator().ToAffine();
  for (size_t n : {64, 256, 2048}) {
    std::vector<G1Affine> bases(n, g);
    std::vector<Fr> scalars(n);
    Fr sum = Fr::Zero();
    for (size_t i = 0; i < n; ++i) {
      // Cluster on few small magnitudes; half the slots negate an earlier
      // scalar outright to force +d/-d collisions in the same bucket.
      if (i % 2 == 1) {
        scalars[i] = Fr::Zero() - scalars[i - 1];
      } else {
        scalars[i] = Fr::FromU64(1 + (i % 7));
      }
      sum += scalars[i];
    }
    // Unbalance a few so the sum is not trivially zero.
    scalars[0] = Fr::Random(rng);
    sum += scalars[0] - Fr::FromU64(1);
    const G1 expected = G1::Generator().ScalarMul(sum);
    for (int c : {4, 8, 13}) {
      for (size_t chunks : {size_t{1}, size_t{3}}) {
        EXPECT_EQ(internal::MsmImpl(bases.data(), scalars.data(), n, c, chunks), expected)
            << "n=" << n << " c=" << c << " chunks=" << chunks;
      }
    }
  }
}

// --- Grouped-scalar MSM ----------------------------------------------------
//
// Scalars with few distinct values take Msm's grouped path: the bases sharing
// a value are summed, then Pippenger runs over one base per value. Every case
// below compares it against the ungrouped Pippenger core.

std::vector<G1Affine> RandomBases(Rng& rng, size_t n) {
  std::vector<G1> jac(n);
  for (G1& p : jac) {
    p = GeneratorMul(Fr::Random(rng));
  }
  std::vector<G1Affine> out(n);
  G1::BatchToAffine(jac.data(), n, out.data());
  return out;
}

// n scalars drawn from `values`, every value used at least once.
std::vector<Fr> ScalarsFrom(Rng& rng, const std::vector<Fr>& values, size_t n) {
  std::vector<Fr> s(n);
  for (size_t i = 0; i < n; ++i) {
    s[i] = i < values.size() ? values[i] : values[rng.NextBelow(values.size())];
  }
  return s;
}

std::vector<Fr> DistinctValues(Rng& rng, size_t d) {
  std::vector<Fr> v(d);
  for (Fr& x : v) {
    x = Fr::Random(rng);
  }
  return v;
}

G1 Ungrouped(const std::vector<G1Affine>& bases, const std::vector<Fr>& scalars) {
  return internal::MsmImpl(bases.data(), scalars.data(), bases.size(), 8, 1);
}

// Runs the grouped path (with Msm's own cap unless one is given), checks it
// was taken and agrees with both the ungrouped core and Msm.
void ExpectGroupedMatches(const std::vector<G1Affine>& bases, const std::vector<Fr>& scalars,
                          const std::string& what, std::optional<size_t> cap = std::nullopt) {
  const size_t n = bases.size();
  const std::optional<G1> grouped = internal::MsmGrouped(
      bases.data(), scalars.data(), n, cap.value_or(internal::MaxGroupedDistinct(n)));
  ASSERT_TRUE(grouped.has_value()) << what;
  const G1 want = Ungrouped(bases, scalars);
  EXPECT_EQ(*grouped, want) << what;
  EXPECT_EQ(Msm(bases, scalars), want) << what;
}

TEST(GroupedMsmTest, CrossoverIsBelowHalfTheSize) {
  for (size_t n : {size_t{64}, size_t{512}, size_t{4096}, size_t{65536}}) {
    const size_t d = internal::MaxGroupedDistinct(n);
    EXPECT_GT(d, 0u) << "n=" << n;
    EXPECT_LT(d, n / 2) << "n=" << n;
  }
}

TEST(GroupedMsmTest, OneAndTwoDistinctValues) {
  Rng rng(401);
  const std::vector<G1Affine> bases = RandomBases(rng, 300);
  ExpectGroupedMatches(bases, std::vector<Fr>(300, Fr::Random(rng)), "D=1");
  ExpectGroupedMatches(bases, ScalarsFrom(rng, DistinctValues(rng, 2), 300), "D=2");
  // Zeros are skipped, not a group: one value plus zeros is still D=1.
  ExpectGroupedMatches(bases, ScalarsFrom(rng, {Fr::Zero(), Fr::FromU64(7)}, 300), "0 and 7");
}

TEST(GroupedMsmTest, DistinctCountAroundTheCrossover) {
  Rng rng(402);
  const size_t n = 1024;
  const size_t d_max = internal::MaxGroupedDistinct(n);
  const std::vector<G1Affine> bases = RandomBases(rng, n);

  const std::vector<Fr> below = ScalarsFrom(rng, DistinctValues(rng, d_max), n);
  ExpectGroupedMatches(bases, below, "D=d_max");

  const std::vector<Fr> above = ScalarsFrom(rng, DistinctValues(rng, d_max + 1), n);
  EXPECT_FALSE(internal::MsmGrouped(bases.data(), above.data(), n, d_max).has_value());
  EXPECT_EQ(Msm(bases, above), Ungrouped(bases, above));
}

TEST(GroupedMsmTest, AllZeroScalarsAndIdentityBases) {
  Rng rng(403);
  std::vector<G1Affine> bases = RandomBases(rng, 200);
  ExpectGroupedMatches(bases, std::vector<Fr>(200, Fr::Zero()), "all zero");
  EXPECT_EQ(Msm(bases, std::vector<Fr>(200, Fr::Zero())), G1::Identity());
  // 8192 points split across pool chunks when the pool has two or more
  // threads; with no group there is nothing to split.
  ExpectGroupedMatches(RandomBases(rng, 8192), std::vector<Fr>(8192, Fr::Zero()),
                       "all zero, chunked");
  for (size_t i = 0; i < bases.size(); i += 3) {
    bases[i] = G1Affine::Identity();
  }
  ExpectGroupedMatches(bases, ScalarsFrom(rng, DistinctValues(rng, 3), 200), "identity bases");
  std::vector<G1Affine> all_identity(200, G1Affine::Identity());
  ExpectGroupedMatches(all_identity, ScalarsFrom(rng, DistinctValues(rng, 3), 200),
                       "all identity bases");
}

TEST(GroupedMsmTest, GroupSummingToTheIdentity) {
  Rng rng(404);
  const size_t n = 128;
  std::vector<G1Affine> bases = RandomBases(rng, n);
  const std::vector<Fr> values = DistinctValues(rng, 3);
  std::vector<Fr> scalars = ScalarsFrom(rng, {values[0], values[1]}, n);
  // values[2]'s group is exactly {P, -P}: its sum cancels to the identity.
  const G1Affine p = bases[10];
  bases[20] = G1Affine{p.x, p.y.Neg(), /*infinity=*/false};
  scalars[10] = values[2];
  scalars[20] = values[2];
  // P and -P (and P again: a doubling) also share values[0]'s group.
  bases[30] = p;
  bases[31] = bases[20];
  bases[32] = p;
  scalars[30] = scalars[31] = scalars[32] = values[0];
  ExpectGroupedMatches(bases, scalars, "P and -P");
}

TEST(GroupedMsmTest, SizesAroundTheCutoffs) {
  // 32: Pippenger vs naive; 1024: serial vs pool; 4096+: the point range
  // splits across pool chunks and the per-chunk sums merge. Below ~30 points
  // the cost model never groups, so the cap is forced there.
  EXPECT_EQ(internal::MaxGroupedDistinct(1), 0u);
  for (size_t n : {size_t{1}, size_t{2}, size_t{31}, size_t{32}, size_t{33}, size_t{1023},
                   size_t{1024}, size_t{1025}, size_t{4096}, size_t{8193}}) {
    Rng rng(500 + n);
    const std::vector<G1Affine> bases = RandomBases(rng, n);
    ExpectGroupedMatches(bases, ScalarsFrom(rng, {Fr::FromU64(3), Fr::Zero() - Fr::One()}, n),
                         "n=" + std::to_string(n), size_t{2});
  }
}

}  // namespace
}  // namespace zkml
