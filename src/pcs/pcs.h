// Polynomial commitment scheme interface shared by the KZG and IPA backends.
// The PLONK prover/verifier is written against this interface so a circuit
// can be proven under either commitment scheme, as in the paper's Tables 6/7.
#ifndef SRC_PCS_PCS_H_
#define SRC_PCS_PCS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/status.h"
#include "src/ec/g1.h"
#include "src/ff/fields.h"
#include "src/transcript/transcript.h"

namespace zkml {

enum class PcsKind { kKzg, kIpa };

struct PcsCommitment {
  G1Affine point;

  bool operator==(const PcsCommitment& o) const { return point == o.point; }
};

// A batch of polynomials opened at one point. `polys` are coefficient vectors.
// Both backends commit by an unblinded MSM, so commitments are linear:
// Commit(a*u + v) == a*Commit(u) + Commit(v) as group elements, which the
// prover uses to commit lookup running sums in pieces.
class Pcs {
 public:
  virtual ~Pcs() = default;

  virtual PcsKind kind() const = 0;
  // Maximum number of coefficients a committed polynomial may have.
  virtual size_t max_len() const = 0;

  virtual PcsCommitment Commit(const std::vector<Fr>& coeffs) const = 0;

  // Builds the size-n Lagrange-basis table CommitLagrange uses, or waits for
  // the one build already under way. Callers about to fan CommitLagrange out
  // across the pool call this first, so no pool worker blocks on the build.
  virtual void PrepareLagrange(size_t n) const = 0;

  // Commits to the polynomial whose evaluations over the radix-2 domain of
  // size evals.size() (a power of two, <= max_len()) are `evals`, without an
  // iFFT: the MSM runs against a Lagrange-basis SRS built once per size and
  // cached — KZG derives it from the trapdoor, IPA by a G1 inverse FFT of the
  // monomial bases. The returned point is bit-identical to
  // Commit(IfftToCoeffs(evals)) — both are the same group element and affine
  // serialization is canonical.
  virtual PcsCommitment CommitLagrange(const std::vector<Fr>& evals) const = 0;

  // Proves the evaluations of `polys` at `point`. The caller must already
  // have absorbed the claimed evaluations into `transcript`; the RLC batching
  // challenge is drawn from it here. Proof bytes are appended to `proof_out`.
  virtual void OpenBatch(const std::vector<const std::vector<Fr>*>& polys, const Fr& point,
                         Transcript* transcript, std::vector<uint8_t>* proof_out) const = 0;

  // Verifier side. Consumes bytes from proof[*offset...] and advances
  // *offset. Proof bytes are adversarial: implementations must never abort on
  // them. Returns kMalformedProof for structurally bad bytes (truncation,
  // invalid encodings, unsupported sizes), kVerifyFailed when the opening
  // equation does not hold, kInvalidArgument on caller contract violations.
  virtual Status VerifyBatch(const std::vector<PcsCommitment>& commitments,
                             const std::vector<Fr>& evals, const Fr& point, Transcript* transcript,
                             const std::vector<uint8_t>& proof, size_t* offset) const = 0;
};

}  // namespace zkml

#endif  // SRC_PCS_PCS_H_
