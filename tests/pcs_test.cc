#include <gtest/gtest.h>

#include <memory>

#include "src/base/rng.h"
#include "src/base/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/pcs/ipa.h"
#include "src/pcs/kzg.h"
#include "src/pcs/shared_pcs.h"
#include "src/poly/domain.h"
#include "src/poly/polynomial.h"

namespace zkml {
namespace {

std::vector<Fr> RandomCoeffs(Rng& rng, size_t n) {
  std::vector<Fr> c(n);
  for (Fr& x : c) {
    x = Fr::Random(rng);
  }
  return c;
}

class PcsTest : public ::testing::TestWithParam<PcsKind> {
 protected:
  static constexpr size_t kMaxLen = 64;

  std::unique_ptr<Pcs> MakePcs() {
    if (GetParam() == PcsKind::kKzg) {
      return std::make_unique<KzgPcs>(std::make_shared<KzgSetup>(KzgSetup::Create(kMaxLen, 7)));
    }
    return std::make_unique<IpaPcs>(std::make_shared<IpaSetup>(IpaSetup::Create(kMaxLen, 7)));
  }
};

TEST_P(PcsTest, CommitIsDeterministicAndBinding) {
  auto pcs = MakePcs();
  Rng rng(1);
  auto a = RandomCoeffs(rng, 32);
  auto b = RandomCoeffs(rng, 32);
  EXPECT_EQ(pcs->Commit(a), pcs->Commit(a));
  EXPECT_FALSE(pcs->Commit(a) == pcs->Commit(b));
}

TEST_P(PcsTest, SingleOpenVerifies) {
  auto pcs = MakePcs();
  Rng rng(2);
  auto coeffs = RandomCoeffs(rng, 48);
  const Fr z = Fr::Random(rng);
  const Fr y = Poly(coeffs).Evaluate(z);
  const PcsCommitment c = pcs->Commit(coeffs);

  Transcript pt("pcs-test");
  pt.AppendFr("y", y);
  std::vector<uint8_t> proof;
  pcs->OpenBatch({&coeffs}, z, &pt, &proof);

  Transcript vt("pcs-test");
  vt.AppendFr("y", y);
  size_t offset = 0;
  const Status s = pcs->VerifyBatch({c}, {y}, z, &vt, proof, &offset);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(offset, proof.size());
}

TEST_P(PcsTest, BatchOpenVerifies) {
  auto pcs = MakePcs();
  Rng rng(3);
  std::vector<std::vector<Fr>> polys;
  polys.push_back(RandomCoeffs(rng, 64));
  polys.push_back(RandomCoeffs(rng, 17));
  polys.push_back(RandomCoeffs(rng, 1));
  const Fr z = Fr::Random(rng);

  std::vector<PcsCommitment> cs;
  std::vector<Fr> ys;
  std::vector<const std::vector<Fr>*> ptrs;
  for (const auto& p : polys) {
    cs.push_back(pcs->Commit(p));
    ys.push_back(Poly(p).Evaluate(z));
    ptrs.push_back(&p);
  }

  Transcript pt("pcs-test");
  for (const Fr& y : ys) {
    pt.AppendFr("y", y);
  }
  std::vector<uint8_t> proof;
  pcs->OpenBatch(ptrs, z, &pt, &proof);

  Transcript vt("pcs-test");
  for (const Fr& y : ys) {
    vt.AppendFr("y", y);
  }
  size_t offset = 0;
  const Status s = pcs->VerifyBatch(cs, ys, z, &vt, proof, &offset);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST_P(PcsTest, WrongEvaluationRejected) {
  auto pcs = MakePcs();
  Rng rng(4);
  auto coeffs = RandomCoeffs(rng, 32);
  const Fr z = Fr::Random(rng);
  const Fr y = Poly(coeffs).Evaluate(z);
  const Fr y_bad = y + Fr::One();
  const PcsCommitment c = pcs->Commit(coeffs);

  Transcript pt("pcs-test");
  pt.AppendFr("y", y);
  std::vector<uint8_t> proof;
  pcs->OpenBatch({&coeffs}, z, &pt, &proof);

  Transcript vt("pcs-test");
  vt.AppendFr("y", y);
  size_t offset = 0;
  const Status s = pcs->VerifyBatch({c}, {y_bad}, z, &vt, proof, &offset);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kVerifyFailed) << s.ToString();
}

TEST_P(PcsTest, WrongCommitmentRejected) {
  auto pcs = MakePcs();
  Rng rng(5);
  auto coeffs = RandomCoeffs(rng, 32);
  auto other = RandomCoeffs(rng, 32);
  const Fr z = Fr::Random(rng);
  const Fr y = Poly(coeffs).Evaluate(z);

  Transcript pt("pcs-test");
  pt.AppendFr("y", y);
  std::vector<uint8_t> proof;
  pcs->OpenBatch({&coeffs}, z, &pt, &proof);

  Transcript vt("pcs-test");
  vt.AppendFr("y", y);
  size_t offset = 0;
  EXPECT_FALSE(pcs->VerifyBatch({pcs->Commit(other)}, {y}, z, &vt, proof, &offset).ok());
}

TEST_P(PcsTest, CorruptedProofRejected) {
  auto pcs = MakePcs();
  Rng rng(6);
  auto coeffs = RandomCoeffs(rng, 32);
  const Fr z = Fr::Random(rng);
  const Fr y = Poly(coeffs).Evaluate(z);
  const PcsCommitment c = pcs->Commit(coeffs);

  Transcript pt("pcs-test");
  pt.AppendFr("y", y);
  std::vector<uint8_t> proof;
  pcs->OpenBatch({&coeffs}, z, &pt, &proof);

  // Flip a byte somewhere in the middle.
  proof[proof.size() / 2] ^= 0x40;
  Transcript vt("pcs-test");
  vt.AppendFr("y", y);
  size_t offset = 0;
  EXPECT_FALSE(pcs->VerifyBatch({c}, {y}, z, &vt, proof, &offset).ok());
}

TEST_P(PcsTest, TruncatedProofRejected) {
  auto pcs = MakePcs();
  Rng rng(7);
  auto coeffs = RandomCoeffs(rng, 16);
  const Fr z = Fr::Random(rng);
  const Fr y = Poly(coeffs).Evaluate(z);
  const PcsCommitment c = pcs->Commit(coeffs);

  Transcript pt("pcs-test");
  std::vector<uint8_t> proof;
  pcs->OpenBatch({&coeffs}, z, &pt, &proof);
  proof.resize(proof.size() / 2);

  Transcript vt("pcs-test");
  size_t offset = 0;
  const Status s = pcs->VerifyBatch({c}, {y}, z, &vt, proof, &offset);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kMalformedProof) << s.ToString();
}

// Columns with few distinct values take Msm's grouped path; the commitment
// must still be exactly Commit(IfftToCoeffs(evals)).
TEST_P(PcsTest, LowCardinalityCommitLagrangeMatchesCommit) {
  auto pcs = MakePcs();
  const EvaluationDomain dom(6);
  ASSERT_EQ(dom.size(), kMaxLen);
  Rng rng(21);
  const Fr a = Fr::Random(rng);
  const Fr b = Fr::Random(rng);
  std::vector<std::vector<Fr>> cases;
  cases.emplace_back(kMaxLen, a);                       // one value
  cases.emplace_back(kMaxLen, Fr::Zero());              // all zero
  cases.emplace_back(kMaxLen, a);                       // two values
  for (size_t r = 0; r < kMaxLen; r += 3) {
    cases.back()[r] = b;
  }
  cases.emplace_back(kMaxLen, Fr::Zero());              // mostly zero
  cases.back()[5] = a;
  cases.back()[40] = b;
  cases.back()[41] = a;
  cases.emplace_back(kMaxLen);                          // piecewise constant
  for (size_t r = 0; r < kMaxLen; ++r) {
    cases.back()[r] = Fr::FromU64(r / 13) * a;
  }
  for (size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(pcs->CommitLagrange(cases[i]), pcs->Commit(dom.IfftToCoeffs(cases[i])))
        << "case " << i;
  }
}

// The prover commits a lookup running sum S as c*Commit(I) + Commit(S - c*I)
// with I = (0, 1, ..., n-1); both backends are linear, so that is Commit(S).
TEST_P(PcsTest, CommitLagrangeIsLinearInTheIndexColumn) {
  auto pcs = MakePcs();
  Rng rng(22);
  const Fr c = Fr::Random(rng);
  std::vector<Fr> index(kMaxLen), rest(kMaxLen), s(kMaxLen);
  for (size_t r = 0; r < kMaxLen; ++r) {
    index[r] = Fr::FromU64(r);
    rest[r] = Fr::FromU64(r / 20);
    s[r] = c * index[r] + rest[r];
  }
  const G1 split = G1::FromAffine(pcs->CommitLagrange(index).point).ScalarMul(c) +
                   G1::FromAffine(pcs->CommitLagrange(rest).point);
  EXPECT_EQ(split.ToAffine(), pcs->CommitLagrange(s).point);
}

INSTANTIATE_TEST_SUITE_P(Backends, PcsTest, ::testing::Values(PcsKind::kKzg, PcsKind::kIpa),
                         [](const ::testing::TestParamInfo<PcsKind>& info) {
                           return info.param == PcsKind::kKzg ? "Kzg" : "Ipa";
                         });

TEST(KzgTest, ProofIsOnePoint) {
  auto setup = std::make_shared<KzgSetup>(KzgSetup::Create(64, 9));
  KzgPcs pcs(setup);
  Rng rng(8);
  auto coeffs = RandomCoeffs(rng, 64);
  Transcript pt("sz");
  std::vector<uint8_t> proof;
  pcs.OpenBatch({&coeffs}, Fr::Random(rng), &pt, &proof);
  EXPECT_EQ(proof.size(), 33u);
}

TEST(IpaTest, ProofIsLogarithmic) {
  auto setup = std::make_shared<IpaSetup>(IpaSetup::Create(64, 9));
  IpaPcs pcs(setup);
  Rng rng(9);
  auto coeffs = RandomCoeffs(rng, 64);
  Transcript pt("sz");
  std::vector<uint8_t> proof;
  pcs.OpenBatch({&coeffs}, Fr::Random(rng), &pt, &proof);
  // 4 bytes size + 6 rounds * 2 points * 33 bytes + 32-byte scalar.
  EXPECT_EQ(proof.size(), 4u + 6u * 2u * 33u + 32u);
}

uint64_t LagrangeBuilds() {
  return obs::MetricsRegistry::Global().counter("pcs.lagrange_basis_builds").Value();
}

// The trapdoor derivation and the G1 inverse FFT must give the same points,
// for every domain size the setup covers.
TEST(KzgLagrangeTest, FromTauMatchesInverseFftForEveryK) {
  constexpr int kMaxK = 12;
  const KzgSetup setup = KzgSetup::Create(static_cast<size_t>(1) << kMaxK, 5);
  for (int k = 0; k <= kMaxK; ++k) {
    const size_t n = static_cast<size_t>(1) << k;
    const std::vector<G1Affine> prefix(setup.powers.begin(), setup.powers.begin() + n);
    EXPECT_EQ(setup.LagrangeBases(n), LagrangeBasesFromMonomial(prefix)) << "k=" << k;
  }
}

// tau = omega^3 of the size-16 domain makes tau^n - 1 vanish for n = 16 (the
// closed form would divide by zero); smaller domains keep the regular path.
TEST(KzgLagrangeTest, TauInsideTheDomainGivesTheIndicatorBasis) {
  constexpr int kK = 4;
  constexpr size_t kN = static_cast<size_t>(1) << kK;
  KzgSetup setup;
  setup.tau = FrRootOfUnity(kK).Pow(3);
  Fr tau_i = Fr::One();
  for (size_t i = 0; i < kN; ++i) {
    setup.powers.push_back(G1::Generator().ScalarMul(tau_i).ToAffine());
    tau_i *= setup.tau;
  }
  for (int k = 0; k <= kK; ++k) {
    const size_t n = static_cast<size_t>(1) << k;
    const std::vector<G1Affine> prefix(setup.powers.begin(), setup.powers.begin() + n);
    EXPECT_EQ(setup.LagrangeBases(n), LagrangeBasesFromMonomial(prefix)) << "k=" << k;
  }
  const std::vector<G1Affine> bases = setup.LagrangeBases(kN);
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(bases[i], i == 3 ? G1Affine::Generator() : G1Affine::Identity()) << "i=" << i;
  }
}

TEST(KzgSetupTest, GrownSetupEqualsFreshSetup) {
  const KzgSetup small = KzgSetup::Create(16, 13);
  const KzgSetup grown = KzgSetup::Create(64, 13, &small);
  const KzgSetup fresh = KzgSetup::Create(64, 13);
  EXPECT_EQ(grown.tau, fresh.tau);
  EXPECT_EQ(grown.powers, fresh.powers);
}

// Every pool worker commits from evaluation form on a cold backend at once:
// one builds the table, the rest wait for it, and the fan-out completes.
TEST(LagrangeCacheTest, ConcurrentFirstCommitsBuildOnce) {
  constexpr size_t kN = 1024;  // large enough that the build itself runs in parallel
  const KzgPcs pcs(std::make_shared<KzgSetup>(KzgSetup::Create(kN, 17)));
  Rng rng(17);
  const std::vector<Fr> evals = RandomCoeffs(rng, kN);
  const size_t tasks = 2 * ThreadPool::Global().num_threads() + 1;
  std::vector<PcsCommitment> got(tasks);
  const uint64_t before = LagrangeBuilds();
  {
    TaskGroup group;
    for (size_t t = 0; t < tasks; ++t) {
      group.Submit([&, t] { got[t] = pcs.CommitLagrange(evals); });
    }
  }
  EXPECT_EQ(LagrangeBuilds() - before, 1u);
  const PcsCommitment want = pcs.Commit(EvaluationDomain(10).IfftToCoeffs(evals));
  for (const PcsCommitment& c : got) {
    EXPECT_EQ(c, want);
  }
}

TEST(SharedPcsTest, SameTripleSharesOneBackend) {
  constexpr uint64_t kSeed = 0x5eed0101;
  const auto a = SharedPcsBackend(PcsKind::kKzg, 64, kSeed);
  EXPECT_EQ(a, SharedPcsBackend(PcsKind::kKzg, 64, kSeed));
  EXPECT_NE(a, SharedPcsBackend(PcsKind::kKzg, 64, kSeed + 1));
  EXPECT_NE(a, SharedPcsBackend(PcsKind::kIpa, 64, kSeed));
}

// A larger KZG request grows the seed's setup; a smaller one is a view of it.
// Either way each backend keeps the max_len it was asked for.
TEST(SharedPcsTest, KzgViewsKeepTheirSizeOverOneTrapdoor) {
  constexpr uint64_t kSeed = 0x5eed0102;
  const auto mid = SharedPcsBackend(PcsKind::kKzg, 32, kSeed);
  const auto big = SharedPcsBackend(PcsKind::kKzg, 128, kSeed);
  const auto small = SharedPcsBackend(PcsKind::kKzg, 8, kSeed);
  EXPECT_EQ(mid->max_len(), 32u);
  EXPECT_EQ(big->max_len(), 128u);
  EXPECT_EQ(small->max_len(), 8u);
  const auto& mid_kzg = dynamic_cast<const KzgPcs&>(*mid);
  const auto& big_kzg = dynamic_cast<const KzgPcs&>(*big);
  const auto& small_kzg = dynamic_cast<const KzgPcs&>(*small);
  EXPECT_EQ(small_kzg.shared_setup(), big_kzg.shared_setup());
  EXPECT_EQ(mid_kzg.setup().tau, big_kzg.setup().tau);
  EXPECT_EQ(big_kzg.setup().powers, KzgSetup::Create(128, kSeed).powers);
  // Commitments through a view equal those of a setup made for that size.
  Rng rng(18);
  const std::vector<Fr> coeffs = RandomCoeffs(rng, 8);
  EXPECT_EQ(small->Commit(coeffs),
            KzgPcs(std::make_shared<KzgSetup>(KzgSetup::Create(8, kSeed))).Commit(coeffs));
}

// IPA's u is the generator after the basis, so it moves with the size: IPA
// backends are shared per exact size only.
TEST(SharedPcsTest, IpaSizesKeepDistinctU) {
  constexpr uint64_t kSeed = 0x5eed0103;
  const auto& a = dynamic_cast<const IpaPcs&>(*SharedPcsBackend(PcsKind::kIpa, 64, kSeed));
  const auto& b = dynamic_cast<const IpaPcs&>(*SharedPcsBackend(PcsKind::kIpa, 128, kSeed));
  EXPECT_EQ(a.max_len(), 64u);
  EXPECT_EQ(b.max_len(), 128u);
  EXPECT_FALSE(a.setup().u == b.setup().u);
  EXPECT_EQ(a.setup().u, IpaSetup::Create(64, kSeed).u);
  EXPECT_EQ(b.setup().u, IpaSetup::Create(128, kSeed).u);
}

}  // namespace
}  // namespace zkml
