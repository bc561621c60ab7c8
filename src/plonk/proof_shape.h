// The byte layout of a PLONK proof, read from the verifying key alone. The
// prover writes it, the verifier checks a proof's length against Bytes() and
// reads it, keygen takes its delta powers. DESIGN.md §6 tabulates the format.
#ifndef SRC_PLONK_PROOF_SHAPE_H_
#define SRC_PLONK_PROOF_SHAPE_H_

#include <array>
#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "src/pcs/pcs.h"
#include "src/plonk/keygen.h"
#include "src/plonk/verifier.h"
#include "src/transcript/transcript.h"

namespace zkml {

class ProofShape {
 public:
  // The polynomial families a proof opens. The first kNumSections are the
  // proof's commitment sections, in proof order; the vk holds the fixed and
  // sigma commitments. kLookupHS interleaves each lookup's h and s (h0 s0 h1..).
  enum Source { kAdvice, kLookupM, kLookupHS, kPermZ, kQuotient, kFixed, kSigma, kNumSources };
  static constexpr int kNumSections = kFixed;

  // One list per Source: polynomials for the prover, commitments for the
  // verifier. An opening names item `index` of its source's list.
  template <typename T>
  using PerSource = std::array<const std::vector<T>*, kNumSources>;
  struct Opening {
    Source source;
    size_t index;
    int32_t rotation;  // opened at x * omega^rotation

    template <typename T>
    const T& Of(const PerSource<T>& lists) const {
      return (*lists[source])[index];
    }
  };

  explicit ProofShape(const VerifyingKey& vk);

  const std::vector<Opening>& openings() const { return openings_; }
  // rotation -> positions in openings(): one batch opening each.
  const std::map<int32_t, std::vector<size_t>>& rotation_groups() const { return groups_; }
  // Position in openings() of (source, index, rotation), which must be opened.
  size_t Find(Source source, size_t index, int32_t rotation) const;
  // delta^i labels permutation column i (the identity permutation maps
  // column i's row r to delta^i * omega^r).
  const std::vector<Fr>& delta_pow() const { return delta_pow_; }
  Fr RotationPoint(const Fr& x, int32_t rotation) const;  // x * omega^rotation

  // Byte offset of evaluation i; i == openings().size() is the first opening.
  size_t EvaluationOffset(size_t i) const;
  // The length of every proof for this key under `pcs`.
  size_t Bytes(const Pcs& pcs) const;

  // Absorbs one section's commitments into the transcript and appends them.
  void Write(Source section, const std::vector<PcsCommitment>& comms, Transcript* transcript,
             std::vector<uint8_t>* proof) const;
  // Reads and absorbs one section from adversarial bytes (never aborts). A
  // failure is rejected at the section's stage, naming the item and offset.
  VerifyResult Read(Source section, const std::vector<uint8_t>& proof, size_t* offset,
                    Transcript* transcript, std::vector<PcsCommitment>* comms) const;

 private:
  struct Section {
    std::vector<const char*> labels;  // item i's transcript label: labels[i % labels.size()]
    size_t count;
    VerifyStage stage;
  };

  int k_;
  Fr omega_;
  std::array<Section, kNumSections> sections_;
  std::vector<Opening> openings_;
  std::map<int32_t, std::vector<size_t>> groups_;
  std::map<std::tuple<Source, size_t, int32_t>, size_t> position_;
  std::vector<Fr> delta_pow_;
};

}  // namespace zkml

#endif  // SRC_PLONK_PROOF_SHAPE_H_
