#include "src/plonk/proof_shape.h"

#include <string>
#include <utility>

#include "src/base/check.h"
#include "src/pcs/shared_pcs.h"
#include "src/plonk/proof_io.h"

namespace zkml {

ProofShape::ProofShape(const VerifyingKey& vk) : k_(vk.k), omega_(FrRootOfUnity(vk.k)) {
  const ConstraintSystem& cs = vk.cs;
  const size_t num_lookups = cs.lookups().size();
  const size_t num_chunks = cs.NumPermutationChunks();
  const size_t num_quotient = static_cast<size_t>(1) << cs.QuotientExtensionK();
  sections_ = {{{{"advice"}, cs.num_advice_columns(), VerifyStage::kAdviceCommitments},
                {{"lookup-m"}, num_lookups, VerifyStage::kLookupCommitments},
                {{"lookup-h", "lookup-s"}, 2 * num_lookups, VerifyStage::kLookupCommitments},
                {{"perm-z"}, num_chunks, VerifyStage::kPermutationCommitments},
                {{"quotient"}, num_quotient, VerifyStage::kQuotientCommitments}}};

  // The canonical opening order. Instance columns are not opened: the
  // verifier evaluates them from the public values.
  auto open = [&](Source source, size_t index, int32_t rotation) {
    position_.emplace(std::make_tuple(source, index, rotation), openings_.size());
    groups_[rotation].push_back(openings_.size());
    openings_.push_back(Opening{source, index, rotation});
  };
  for (const ColumnQuery& q : cs.AllQueries()) {
    if (q.column.type != ColumnType::kInstance) {
      open(q.column.type == ColumnType::kAdvice ? kAdvice : kFixed, q.column.index, q.rotation);
    }
  }
  for (size_t i = 0; i < vk.perm_columns.size(); ++i) {
    open(kSigma, i, 0);
  }
  for (size_t l = 0; l < num_lookups; ++l) {
    open(kLookupM, l, 0);
    open(kLookupHS, 2 * l, 0);
    open(kLookupHS, 2 * l + 1, 0);
    open(kLookupHS, 2 * l + 1, 1);
  }
  for (size_t c = 0; c < num_chunks; ++c) {
    open(kPermZ, c, 0);
    open(kPermZ, c, 1);
  }
  for (size_t i = 0; i < num_quotient; ++i) {
    open(kQuotient, i, 0);
  }

  const Fr delta = FrDelta();
  delta_pow_.resize(vk.perm_columns.size());
  for (size_t i = 0; i < delta_pow_.size(); ++i) {
    delta_pow_[i] = i == 0 ? Fr::One() : delta_pow_[i - 1] * delta;
  }
}

size_t ProofShape::Find(Source source, size_t index, int32_t rotation) const {
  const auto it = position_.find(std::make_tuple(source, index, rotation));
  ZKML_CHECK_MSG(it != position_.end(), "the proof does not open this polynomial");
  return it->second;
}

Fr ProofShape::RotationPoint(const Fr& x, int32_t rotation) const {
  return x * omega_.Pow(RotateRow(0, rotation, static_cast<size_t>(1) << k_));
}

size_t ProofShape::EvaluationOffset(size_t i) const {
  size_t points = 0;
  for (const Section& s : sections_) {
    points += s.count;
  }
  return points * G1Affine::kCompressedSize + i * kProofFrSize;
}

size_t ProofShape::Bytes(const Pcs& pcs) const {
  return EvaluationOffset(openings_.size()) + groups_.size() * OpeningBytes(pcs.kind(), k_);
}

void ProofShape::Write(Source section, const std::vector<PcsCommitment>& comms,
                       Transcript* transcript, std::vector<uint8_t>* proof) const {
  const Section& s = sections_[section];
  ZKML_CHECK(comms.size() == s.count);
  for (size_t i = 0; i < comms.size(); ++i) {
    transcript->AppendPoint(s.labels[i % s.labels.size()], comms[i].point);
    ProofAppendPoint(proof, comms[i].point);
  }
}

VerifyResult ProofShape::Read(Source section, const std::vector<uint8_t>& proof, size_t* offset,
                              Transcript* transcript, std::vector<PcsCommitment>* comms) const {
  const Section& s = sections_[section];
  comms->resize(s.count);
  for (size_t i = 0; i < s.count; ++i) {
    const char* label = s.labels[i % s.labels.size()];
    const std::string what =
        std::string(label) + " commitment " + std::to_string(i / s.labels.size());
    if (Status st = ProofReadPoint(proof, offset, &(*comms)[i].point, what.c_str()); !st.ok()) {
      return VerifyResult::Rejected(s.stage, std::move(st));
    }
    transcript->AppendPoint(label, (*comms)[i].point);
  }
  return VerifyResult::Accepted();
}

}  // namespace zkml
