#include "src/pcs/kzg.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/base/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/plonk/proof_io.h"
#include "src/poly/polynomial.h"

namespace zkml {
namespace {

// out[i] = scalars[i]·G for the group generator G, in parallel.
void GeneratorMultiples(const std::vector<Fr>& scalars, G1Affine* out) {
  ParallelFor(0, scalars.size(), [&](size_t lo, size_t hi) {
    std::vector<G1> pts(hi - lo);
    for (size_t i = lo; i < hi; ++i) {
      pts[i - lo] = GeneratorMul(scalars[i]);
    }
    G1::BatchToAffine(pts.data(), pts.size(), out + lo);
  });
}

}  // namespace

KzgSetup KzgSetup::Create(size_t max_len, uint64_t seed, const KzgSetup* grow_from) {
  Rng rng(seed);
  KzgSetup setup;
  setup.tau = Fr::Random(rng);
  size_t start = 0;
  if (grow_from != nullptr) {
    ZKML_CHECK_MSG(grow_from->tau == setup.tau, "grown KZG setup must come from the same seed");
    start = std::min(grow_from->powers.size(), max_len);
    setup.powers.assign(grow_from->powers.begin(), grow_from->powers.begin() + start);
  }
  // powers[i] = tau^i * G for the indices the prefix does not cover.
  std::vector<Fr> tau_pows(max_len - start);
  Fr tau_i = setup.tau.Pow(start);
  for (Fr& p : tau_pows) {
    p = tau_i;
    tau_i *= setup.tau;
  }
  setup.powers.resize(max_len);
  GeneratorMultiples(tau_pows, setup.powers.data() + start);
  return setup;
}

std::vector<G1Affine> KzgSetup::LagrangeBases(size_t n) const {
  ZKML_CHECK_MSG(n != 0 && (n & (n - 1)) == 0, "Lagrange basis size must be a power of two");
  int k = 0;
  while ((static_cast<size_t>(1) << k) < n) {
    ++k;
  }
  const Fr omega = FrRootOfUnity(k);
  std::vector<Fr> omega_pows(n);
  ParallelFor(0, n, [&](size_t lo, size_t hi) {
    Fr cur = omega.Pow(lo);
    for (size_t i = lo; i < hi; ++i) {
      omega_pows[i] = cur;
      cur *= omega;
    }
  });
  std::vector<Fr> l(n, Fr::Zero());
  const Fr vanishing = tau.Pow(n) - Fr::One();  // Z_H(tau) = tau^n - 1
  if (vanishing.IsZero()) {
    // tau = omega^j: every L_i vanishes at tau except L_j, which is 1 there.
    for (size_t i = 0; i < n; ++i) {
      if (omega_pows[i] == tau) {
        l[i] = Fr::One();
      }
    }
  } else {
    // tau is outside the domain, so every tau - omega^i is nonzero.
    for (size_t i = 0; i < n; ++i) {
      l[i] = tau - omega_pows[i];
    }
    std::vector<Fr> scratch;
    BatchInverseNonZero(l.data(), n, scratch);
    const Fr scale = vanishing * Fr::FromU64(n).Inverse();
    for (size_t i = 0; i < n; ++i) {
      l[i] *= omega_pows[i] * scale;
    }
  }
  std::vector<G1Affine> out(n);
  GeneratorMultiples(l, out.data());
  return out;
}

KzgPcs::KzgPcs(std::shared_ptr<const KzgSetup> setup, size_t max_len)
    : setup_(std::move(setup)), max_len_(max_len) {
  ZKML_CHECK_MSG(max_len_ <= setup_->powers.size(), "KZG view exceeds its setup");
}

PcsCommitment KzgPcs::Commit(const std::vector<Fr>& coeffs) const {
  ZKML_CHECK_MSG(coeffs.size() <= max_len_, "polynomial exceeds KZG setup");
  static obs::Counter& commits = obs::MetricsRegistry::Global().counter("pcs.kzg.commits");
  commits.Increment();
  return PcsCommitment{Msm(setup_->powers.data(), coeffs.data(), coeffs.size()).ToAffine()};
}

const std::vector<G1Affine>& KzgPcs::LagrangeTable(size_t n) const {
  return lagrange_.Get(n, max_len_, [this](size_t size) { return setup_->LagrangeBases(size); });
}

void KzgPcs::PrepareLagrange(size_t n) const { LagrangeTable(n); }

PcsCommitment KzgPcs::CommitLagrange(const std::vector<Fr>& evals) const {
  static obs::Counter& commits =
      obs::MetricsRegistry::Global().counter("pcs.kzg.lagrange_commits");
  commits.Increment();
  const std::vector<G1Affine>& bases = LagrangeTable(evals.size());
  return PcsCommitment{Msm(bases.data(), evals.data(), evals.size()).ToAffine()};
}

void KzgPcs::OpenBatch(const std::vector<const std::vector<Fr>*>& polys, const Fr& point,
                       Transcript* transcript, std::vector<uint8_t>* proof_out) const {
  obs::Span span("kzg-open-batch");
  static obs::Counter& opens = obs::MetricsRegistry::Global().counter("pcs.kzg.open_batches");
  opens.Increment();
  ZKML_CHECK(!polys.empty());
  const Fr v = transcript->ChallengeFr("kzg-batch-v");
  size_t max_size = 0;
  for (const auto* p : polys) {
    max_size = std::max(max_size, p->size());
  }
  std::vector<Fr> combined(max_size, Fr::Zero());
  Fr vi = Fr::One();
  for (const auto* p : polys) {
    for (size_t i = 0; i < p->size(); ++i) {
      combined[i] += (*p)[i] * vi;
    }
    vi *= v;
  }
  Fr y;
  Poly quotient = Poly(std::move(combined)).DivideByLinear(point, &y);
  const PcsCommitment w = Commit(quotient.coeffs());
  transcript->AppendPoint("kzg-w", w.point);
  const auto bytes = w.point.Serialize();
  proof_out->insert(proof_out->end(), bytes.begin(), bytes.end());
}

Status KzgPcs::VerifyBatch(const std::vector<PcsCommitment>& commitments,
                           const std::vector<Fr>& evals, const Fr& point, Transcript* transcript,
                           const std::vector<uint8_t>& proof, size_t* offset) const {
  obs::Span span("kzg-verify-batch");
  static obs::Counter& verifies = obs::MetricsRegistry::Global().counter("pcs.kzg.verify_batches");
  verifies.Increment();
  if (commitments.size() != evals.size()) {
    return InvalidArgumentError("kzg: " + std::to_string(commitments.size()) +
                                " commitments but " + std::to_string(evals.size()) +
                                " claimed evaluations");
  }
  if (commitments.empty()) {
    return InvalidArgumentError("kzg: empty opening batch");
  }
  if (setup_->powers.empty()) {
    return OutOfRangeError("kzg: empty setup");
  }
  const Fr v = transcript->ChallengeFr("kzg-batch-v");
  G1Affine w;
  ZKML_RETURN_IF_ERROR(ProofReadPoint(proof, offset, &w, "kzg witness point"));
  transcript->AppendPoint("kzg-w", w);

  // C* = sum v^i C_i, y* = sum v^i y_i.
  G1 c_star;
  Fr y_star = Fr::Zero();
  Fr vi = Fr::One();
  for (size_t i = 0; i < commitments.size(); ++i) {
    c_star += G1::FromAffine(commitments[i].point).ScalarMul(vi);
    y_star += evals[i] * vi;
    vi *= v;
  }
  // Pairing check simulated in the exponent (see header comment):
  //   C* - y*·G == (tau - z)·W.
  const G1 lhs = c_star - G1::Generator().ScalarMul(y_star);
  if (defer_ != nullptr) {
    // Deferred verification: record the claim; KzgAccumulator::Check folds
    // every proof's claim into one RLC'd pairing check.
    defer_->Add(KzgDeferredOpening{lhs, w, point, 0});
    return Status::Ok();
  }
  static obs::Counter& pairings =
      obs::MetricsRegistry::Global().counter("pcs.kzg.pairing_checks");
  pairings.Increment();
  const G1 rhs = G1::FromAffine(w).ScalarMul(setup_->tau - point);
  if (!(lhs == rhs)) {
    return VerifyFailedError("kzg: opening equation C* - y*G != (tau - z)W for batch of " +
                             std::to_string(commitments.size()) + " commitments");
  }
  return Status::Ok();
}

Status KzgAccumulator::Check(const KzgSetup& setup, std::vector<size_t>* blamed_tags) const {
  obs::Span span("kzg-aggregate-check");
  static obs::Counter& checks =
      obs::MetricsRegistry::Global().counter("pcs.kzg.aggregate_checks");
  static obs::Counter& pairings =
      obs::MetricsRegistry::Global().counter("pcs.kzg.pairing_checks");
  checks.Increment();
  if (entries_.empty()) {
    return InvalidArgumentError("kzg aggregate: no deferred openings to check");
  }
  // The RLC challenge is bound to every claim being combined, so an attacker
  // cannot craft two bad claims that cancel.
  Transcript transcript("zkml-kzg-aggregate");
  for (const KzgDeferredOpening& e : entries_) {
    transcript.AppendPoint("agg-lhs", e.lhs.ToAffine());
    transcript.AppendPoint("agg-w", e.w);
    transcript.AppendFr("agg-z", e.point);
  }
  const Fr r = transcript.ChallengeFr("kzg-aggregate-r");
  // sum r^j lhs_j == sum r^j (tau - z_j) W_j — the exponent form of the single
  // batched pairing e(sum r^j (C_j - y_j·G + z_j·W_j), H) = e(sum r^j W_j, tau·H).
  G1 lhs_acc, rhs_acc;
  Fr rj = Fr::One();
  for (const KzgDeferredOpening& e : entries_) {
    lhs_acc += e.lhs.ScalarMul(rj);
    rhs_acc += G1::FromAffine(e.w).ScalarMul(rj * (setup.tau - e.point));
    rj *= r;
  }
  pairings.Increment();
  if (lhs_acc == rhs_acc) {
    return Status::Ok();
  }
  // Rejection path: re-check each claim on its own to name the proofs whose
  // openings are bad. These per-claim checks only run after the single
  // aggregate pairing check has already failed.
  std::vector<size_t> bad;
  for (const KzgDeferredOpening& e : entries_) {
    pairings.Increment();
    if (!(e.lhs == G1::FromAffine(e.w).ScalarMul(setup.tau - e.point)) &&
        (bad.empty() || bad.back() != e.tag)) {
      bad.push_back(e.tag);
    }
  }
  std::string who;
  for (const size_t tag : bad) {
    who += (who.empty() ? "" : ",") + std::to_string(tag);
  }
  if (blamed_tags != nullptr) {
    blamed_tags->insert(blamed_tags->end(), bad.begin(), bad.end());
  }
  if (bad.empty()) {
    // Every claim passes individually but the combination fails: impossible
    // for honestly accumulated claims, so report it as corruption.
    return VerifyFailedError("kzg aggregate: combined pairing check failed across " +
                             std::to_string(entries_.size()) +
                             " deferred openings (no individual claim blamed)");
  }
  return VerifyFailedError("kzg aggregate: combined pairing check failed across " +
                           std::to_string(entries_.size()) +
                           " deferred openings; blamed proof(s): " + who);
}

}  // namespace zkml
