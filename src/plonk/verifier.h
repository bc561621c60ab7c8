// The PLONK verifier: mirrors the prover's transcript, reconstructs the
// constraint identity at the challenge point from the revealed evaluations,
// and checks the PCS opening proofs.
//
// The proof bytes and the instance vector are ADVERSARIAL inputs: the
// verifier never aborts on them, and failures come back as a VerifyResult
// naming the exact stage that rejected (for operability: a fleet can
// distinguish garbage bytes from a false statement from a wrong-sized
// public input without reproducing the proof).
#ifndef SRC_PLONK_VERIFIER_H_
#define SRC_PLONK_VERIFIER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/pcs/pcs.h"
#include "src/plonk/keygen.h"

namespace zkml {

// Which verification stage rejected the proof. Stages are ordered as the
// verifier executes them; kAccepted means every stage passed.
enum class VerifyStage {
  kAccepted,
  kInstance,                // instance column count / length validation
  kProofLength,             // proof length differs from the vk's proof shape
  kAdviceCommitments,       // reading the advice commitment round
  kLookupCommitments,       // reading the lookup m/h/s commitment rounds
  kPermutationCommitments,  // reading the permutation z commitments
  kQuotientCommitments,     // reading the quotient chunk commitments
  kEvaluations,             // reading the revealed evaluations
  kVanishingCheck,          // the reconstructed quotient identity at x
  kPcsOpening,              // a PCS batch-opening check
  // Sharded-verification stages (src/zkml/sharded.h): the composite verifier
  // reuses VerifyResult so rejections stay stage-attributed end to end.
  kShardStitch,             // boundary activations disagree with the statement
  kShardAggregate,          // the combined batched-KZG pairing check
  // Batched multi-inference stages (src/zkml/batched.h).
  kBatchStitch,             // a per-inference segment disagrees with the statement
  kBatchAggregate,          // the cross-proof RLC pairing check
};

const char* VerifyStageName(VerifyStage stage);

struct VerifyResult {
  Status status;                                 // kOk iff the proof verified
  VerifyStage stage = VerifyStage::kAccepted;    // first stage that rejected

  bool ok() const { return status.ok(); }
  explicit operator bool() const { return ok(); }

  // "accepted" or e.g. "rejected at stage vanishing-check: VERIFY_FAILED: ...".
  std::string ToString() const;

  static VerifyResult Accepted() { return VerifyResult{}; }
  static VerifyResult Rejected(VerifyStage stage, Status status) {
    return VerifyResult{std::move(status), stage};
  }
};

// `instance_columns[i]` holds the public values of instance column i (may be
// shorter than 2^k; missing rows are zero). Returns an Accepted result iff
// the proof is valid for those public inputs; never aborts on malformed
// proof bytes.
VerifyResult VerifyProof(const VerifyingKey& vk, const Pcs& pcs,
                         const std::vector<std::vector<Fr>>& instance_columns,
                         const std::vector<uint8_t>& proof);

}  // namespace zkml

#endif  // SRC_PLONK_VERIFIER_H_
