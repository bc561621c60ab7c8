// Byte-level (de)serialization helpers shared by the proof writer and the
// readers (PLONK verifier, PCS backends, proof-file I/O). Readers consume
// *adversarial* bytes: they never abort, and every failure returns a
// kMalformedProof Status naming what was being read and at which byte offset.
#ifndef SRC_PLONK_PROOF_IO_H_
#define SRC_PLONK_PROOF_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/ec/g1.h"
#include "src/ff/fields.h"

namespace zkml {

inline constexpr size_t kProofFrSize = 32;  // canonical little-endian Fr

// kMalformedProof unless `need` bytes remain at `offset`.
inline Status ProofNeed(const std::vector<uint8_t>& in, size_t offset, size_t need,
                        const char* what) {
  const size_t have = offset > in.size() ? 0 : in.size() - offset;
  if (have >= need) {
    return Status::Ok();
  }
  return MalformedProofError(std::string("truncated reading ") + what + " at byte offset " +
                             std::to_string(offset) + " (need " + std::to_string(need) +
                             " bytes, have " + std::to_string(have) + ")");
}

inline void ProofAppendPoint(std::vector<uint8_t>* out, const G1Affine& p) {
  const auto bytes = p.Serialize();
  out->insert(out->end(), bytes.begin(), bytes.end());
}

// Reads a compressed G1 point. `what` names the field being read so error
// messages can attribute the failure (e.g. "advice commitment 3").
inline Status ProofReadPoint(const std::vector<uint8_t>& in, size_t* offset, G1Affine* p,
                             const char* what = "point") {
  ZKML_RETURN_IF_ERROR(ProofNeed(in, *offset, G1Affine::kCompressedSize, what));
  if (!G1Affine::Deserialize(in.data() + *offset, p)) {
    return MalformedProofError(std::string("invalid curve-point encoding for ") + what +
                               " at byte offset " + std::to_string(*offset));
  }
  *offset += G1Affine::kCompressedSize;
  return Status::Ok();
}

inline void ProofAppendFr(std::vector<uint8_t>* out, const Fr& x) {
  const U256 c = x.ToCanonical();
  for (int i = 0; i < 4; ++i) {
    for (int b = 0; b < 8; ++b) {
      out->push_back(static_cast<uint8_t>(c.limbs[i] >> (8 * b)));
    }
  }
}

// Reads a canonical scalar; values >= the Fr modulus are rejected (accepting
// them would make proof encodings malleable).
inline Status ProofReadFr(const std::vector<uint8_t>& in, size_t* offset, Fr* x,
                          const char* what = "scalar") {
  ZKML_RETURN_IF_ERROR(ProofNeed(in, *offset, kProofFrSize, what));
  U256 c;
  for (int i = 0; i < 4; ++i) {
    uint64_t limb = 0;
    for (int b = 0; b < 8; ++b) {
      limb |= static_cast<uint64_t>(in[*offset + i * 8 + b]) << (8 * b);
    }
    c.limbs[i] = limb;
  }
  if (CmpU256(c, FrParams::Modulus()) >= 0) {
    return MalformedProofError(std::string("non-canonical scalar (>= field modulus) for ") +
                               what + " at byte offset " + std::to_string(*offset));
  }
  *offset += kProofFrSize;
  *x = Fr::FromCanonical(c);
  return Status::Ok();
}

inline void ProofAppendU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

inline Status ProofReadU32(const std::vector<uint8_t>& in, size_t* offset, uint32_t* v,
                           const char* what = "length") {
  ZKML_RETURN_IF_ERROR(ProofNeed(in, *offset, 4, what));
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<uint32_t>(in[*offset + i]) << (8 * i);
  }
  *offset += 4;
  return Status::Ok();
}

// Exact-length enforcement: a well-formed proof is consumed completely.
// Trailing bytes mean the encoding is malleable and are rejected.
inline Status ProofExpectEnd(const std::vector<uint8_t>& in, size_t offset) {
  if (offset != in.size()) {
    return MalformedProofError(std::to_string(in.size() - offset) +
                               " trailing byte(s) after byte offset " + std::to_string(offset));
  }
  return Status::Ok();
}

}  // namespace zkml

#endif  // SRC_PLONK_PROOF_IO_H_
