// KZG polynomial commitments over BN254 G1.
//
// SUBSTITUTION (see DESIGN.md §2): the original verifier checks the opening
// equation e(C - y·G, H) = e(W, (tau - z)·H) with a pairing. Implementing the
// BN254 pairing (Fp12 tower, Miller loop) from scratch offline is out of
// scope, so our verifier — which in this repo also generated the local,
// insecure trusted setup — checks the *same relation in the exponent* using
// the trapdoor: C - y·G == (tau - z)·W. Prover work, proof bytes, and
// verification asymptotics are identical to the pairing-based check.
#ifndef SRC_PCS_KZG_H_
#define SRC_PCS_KZG_H_

#include <memory>
#include <vector>

#include "src/pcs/lagrange_basis.h"
#include "src/pcs/pcs.h"

namespace zkml {

struct KzgSetup {
  std::vector<G1Affine> powers;  // tau^i * G for i < max_len
  Fr tau;  // trapdoor: used by the simulated pairing check and LagrangeBases

  // Local (insecure, test/benchmark-only) setup. The real system uses the
  // Perpetual Powers of Tau ceremony output. The trapdoor is drawn from the
  // seed before the powers, so setups sharing a seed share tau regardless of
  // max_len — per-shard setups of different sizes aggregate soundly, and the
  // powers of a smaller setup are a prefix of a larger one's. `grow_from`,
  // when given, must be a setup from the same seed; its powers are copied
  // instead of recomputed.
  static KzgSetup Create(size_t max_len, uint64_t seed, const KzgSetup* grow_from = nullptr);

  // Lagrange bases for the size-n radix-2 domain (n a power of two), derived
  // from the trapdoor: L_i = L_i(tau)·G with
  //   L_i(tau) = omega^i (tau^n - 1) / (n (tau - omega^i)),
  // one batch inversion plus n scalar multiplications instead of the
  // (n/2)·log n of a G1 inverse FFT. If tau lies in the domain (tau = omega^j)
  // L_i(tau) is the indicator [i == j]. The points equal
  // LagrangeBasesFromMonomial(powers[0..n)) exactly; n may exceed
  // powers.size().
  std::vector<G1Affine> LagrangeBases(size_t n) const;
};

// One opening claim captured instead of checked: lhs == (tau - z)·W, the
// exponent form of the pairing equation e(C* - y*·G, H) = e(W, (tau - z)·H).
struct KzgDeferredOpening {
  G1 lhs;      // C* - y*·G for the batch
  G1Affine w;  // witness commitment
  Fr point;    // opening point z
  size_t tag;  // which proof this claim came from (shard/batch index)
};

// Collects deferred openings across many proofs (one per shard in sharded
// verification, one per proof in cross-proof batch verification) and
// discharges them with a single random-linear-combination check — the analog
// of one batched pairing instead of k. Not thread-safe; accumulate from one
// thread.
class KzgAccumulator {
 public:
  // Tag stamped onto subsequently Add()ed claims; callers verifying several
  // proofs into one accumulator set this to the proof's index before each
  // proof so a rejection can name the culprit.
  void SetTag(size_t tag) { tag_ = tag; }

  void Add(KzgDeferredOpening opening) {
    opening.tag = tag_;
    entries_.push_back(std::move(opening));
  }
  size_t size() const { return entries_.size(); }

  // Draws an RLC challenge r from a transcript over every accumulated claim
  // and verifies sum_j r^j·lhs_j == sum_j r^j·(tau - z_j)·W_j with a single
  // pairing check. A cheat in any single claim survives only with probability
  // |entries|/|Fr|. On failure, each claim is re-checked individually
  // (diagnostic only — these extra checks run on the rejection path) and the
  // tags of the failing proofs are reported in the error message and, when
  // `blamed_tags` is non-null, appended there.
  Status Check(const KzgSetup& setup, std::vector<size_t>* blamed_tags = nullptr) const;

 private:
  std::vector<KzgDeferredOpening> entries_;
  size_t tag_ = 0;
};

class KzgPcs : public Pcs {
 public:
  explicit KzgPcs(std::shared_ptr<const KzgSetup> setup)
      : setup_(std::move(setup)), max_len_(setup_->powers.size()) {}

  // A view committing at most max_len (<= setup->powers.size()) coefficients,
  // so one setup grown for the largest circuit serves smaller ones with the
  // max_len() each circuit was sized for.
  KzgPcs(std::shared_ptr<const KzgSetup> setup, size_t max_len);

  // Deferred-verification mode: VerifyBatch records its final opening claim
  // into `defer` (not owned) and reports success; the caller must discharge
  // the accumulator with KzgAccumulator::Check. Proving is unaffected.
  KzgPcs(std::shared_ptr<const KzgSetup> setup, KzgAccumulator* defer)
      : setup_(std::move(setup)), max_len_(setup_->powers.size()), defer_(defer) {}

  const KzgSetup& setup() const { return *setup_; }
  const std::shared_ptr<const KzgSetup>& shared_setup() const { return setup_; }

  PcsKind kind() const override { return PcsKind::kKzg; }
  size_t max_len() const override { return max_len_; }

  PcsCommitment Commit(const std::vector<Fr>& coeffs) const override;
  void PrepareLagrange(size_t n) const override;
  PcsCommitment CommitLagrange(const std::vector<Fr>& evals) const override;
  // The bytes OpenBatch appends, whatever the polynomials' size: the witness W.
  static size_t OpeningBytes() { return G1Affine::kCompressedSize; }
  void OpenBatch(const std::vector<const std::vector<Fr>*>& polys, const Fr& point,
                 Transcript* transcript, std::vector<uint8_t>* proof_out) const override;
  Status VerifyBatch(const std::vector<PcsCommitment>& commitments, const std::vector<Fr>& evals,
                     const Fr& point, Transcript* transcript, const std::vector<uint8_t>& proof,
                     size_t* offset) const override;

 private:
  const std::vector<G1Affine>& LagrangeTable(size_t n) const;

  std::shared_ptr<const KzgSetup> setup_;
  size_t max_len_ = 0;
  KzgAccumulator* defer_ = nullptr;
  LagrangeBasisCache lagrange_;
};

}  // namespace zkml

#endif  // SRC_PCS_KZG_H_
