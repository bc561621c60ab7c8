#include "src/plonk/verifier.h"

#include <array>
#include <iterator>
#include <optional>

#include "src/obs/trace.h"
#include "src/plonk/proof_io.h"
#include "src/plonk/proof_shape.h"
#include "src/poly/domain.h"
#include "src/transcript/transcript.h"

namespace zkml {

const char* VerifyStageName(VerifyStage stage) {
  static constexpr const char* kNames[] = {
      "accepted", "instance", "proof-length", "advice-commitments", "lookup-commitments",
      "permutation-commitments", "quotient-commitments", "evaluations", "vanishing-check",
      "pcs-opening", "shard-stitch", "shard-aggregate", "batch-stitch", "batch-aggregate"};
  static_assert(std::size(kNames) == static_cast<size_t>(VerifyStage::kBatchAggregate) + 1,
                "one name per VerifyStage, in declaration order");
  return kNames[static_cast<size_t>(stage)];
}

std::string VerifyResult::ToString() const {
  if (ok()) {
    return "accepted";
  }
  return std::string("rejected at stage ") + VerifyStageName(stage) + ": " + status.ToString();
}

VerifyResult VerifyProof(const VerifyingKey& vk, const Pcs& pcs,
                         const std::vector<std::vector<Fr>>& instance_columns,
                         const std::vector<uint8_t>& proof) {
  obs::Span verify_span("verify");
  // Stage sub-spans; emplace() ends the previous one (LIFO within
  // verify_span), early rejects unwind both via RAII.
  std::optional<obs::Span> section;
  section.emplace("verify-read-proof");

  const ConstraintSystem& cs = vk.cs;
  if (instance_columns.size() != cs.num_instance_columns()) {
    return VerifyResult::Rejected(
        VerifyStage::kInstance,
        InvalidArgumentError("expected " + std::to_string(cs.num_instance_columns()) +
                             " instance columns, got " +
                             std::to_string(instance_columns.size())));
  }
  const ProofShape shape(vk);
  if (const size_t want = shape.Bytes(pcs); proof.size() != want) {
    return VerifyResult::Rejected(
        VerifyStage::kProofLength,
        MalformedProofError("proof is " + std::to_string(proof.size()) +
                            " bytes; the verifying key's proof shape is " + std::to_string(want) +
                            " bytes"));
  }
  EvaluationDomain dom(vk.k);
  const size_t n = dom.size();
  const size_t num_lookups = cs.lookups().size();
  const size_t num_chunks = cs.NumPermutationChunks();
  const int chunk_size = cs.PermutationChunkSize();
  const std::vector<Column>& perm_cols = vk.perm_columns;

  size_t offset = 0;
  Transcript transcript("zkml-plonk");
  transcript.AppendFr("k", Fr::FromU64(static_cast<uint64_t>(vk.k)));
  for (size_t i = 0; i < instance_columns.size(); ++i) {
    const auto& col = instance_columns[i];
    if (col.size() > n) {
      return VerifyResult::Rejected(
          VerifyStage::kInstance,
          InvalidArgumentError("instance column " + std::to_string(i) + " has " +
                               std::to_string(col.size()) + " rows, circuit has only " +
                               std::to_string(n)));
    }
    for (size_t r = 0; r < n; ++r) {
      transcript.AppendFr("instance", r < col.size() ? col[r] : Fr::Zero());
    }
  }

  // --- Commitments, section by section, with the prover's challenges. ---
  std::array<std::vector<PcsCommitment>, ProofShape::kNumSections> comms;
  auto read = [&](ProofShape::Source s) {
    return shape.Read(s, proof, &offset, &transcript, &comms[s]);
  };
  if (VerifyResult r = read(ProofShape::kAdvice); !r) return r;
  const Fr theta = transcript.ChallengeFr("theta");
  if (VerifyResult r = read(ProofShape::kLookupM); !r) return r;
  const Fr beta = transcript.ChallengeFr("beta");
  const Fr gamma = transcript.ChallengeFr("gamma");
  if (VerifyResult r = read(ProofShape::kLookupHS); !r) return r;
  if (VerifyResult r = read(ProofShape::kPermZ); !r) return r;
  const Fr y = transcript.ChallengeFr("y");
  if (VerifyResult r = read(ProofShape::kQuotient); !r) return r;
  const Fr x = transcript.ChallengeFr("x");

  // --- Evaluations, in the shape's canonical order. ---
  const std::vector<ProofShape::Opening>& openings = shape.openings();
  std::vector<Fr> evals(openings.size());
  for (size_t i = 0; i < evals.size(); ++i) {
    const std::string what = "evaluation " + std::to_string(i) + " of " +
                             std::to_string(evals.size()) + " (rotation " +
                             std::to_string(openings[i].rotation) + ")";
    if (Status s = ProofReadFr(proof, &offset, &evals[i], what.c_str()); !s.ok()) {
      return VerifyResult::Rejected(VerifyStage::kEvaluations, std::move(s));
    }
    transcript.AppendFr("eval", evals[i]);
  }
  auto eval_of = [&](ProofShape::Source source, size_t index, int32_t rotation) {
    return evals[shape.Find(source, index, rotation)];
  };
  auto resolve = [&](const ColumnQuery& q) {
    const size_t i = q.column.index;
    if (q.column.type == ColumnType::kInstance) {  // not opened: its values are public
      return dom.EvaluateLagrangeCombination(instance_columns[i],
                                             shape.RotationPoint(x, q.rotation));
    }
    const bool advice = q.column.type == ColumnType::kAdvice;
    return eval_of(advice ? ProofShape::kAdvice : ProofShape::kFixed, i, q.rotation);
  };

  // --- Reconstruct the constraint identity at x. ---
  section.emplace("vanishing-check");
  const Fr l0_x = dom.EvaluateLagrange(0, x);
  const Fr llast_x = dom.EvaluateLagrange(n - 1, x);
  const Fr lactive_x = Fr::One() - llast_x;

  Fr numerator = Fr::Zero();
  Fr y_pow = Fr::One();
  auto add_constraint = [&](const Fr& v) {
    numerator += v * y_pow;
    y_pow *= y;
  };

  for (const Gate& gate : cs.gates()) {
    add_constraint(gate.poly.Evaluate(resolve));
  }
  for (size_t l = 0; l < num_lookups; ++l) {
    const LookupArgument& lk = cs.lookups()[l];
    Fr f = Fr::Zero();
    Fr t = Fr::Zero();
    Fr theta_j = Fr::One();
    for (size_t j = 0; j < lk.inputs.size(); ++j) {
      f += lk.inputs[j].Evaluate(resolve) * theta_j;
      t += resolve(ColumnQuery{lk.table[j], 0}) * theta_j;
      theta_j *= theta;
    }
    const Fr m = eval_of(ProofShape::kLookupM, l, 0);
    const Fr h = eval_of(ProofShape::kLookupHS, 2 * l, 0);
    const Fr s = eval_of(ProofShape::kLookupHS, 2 * l + 1, 0);
    const Fr s_next = eval_of(ProofShape::kLookupHS, 2 * l + 1, 1);
    const Fr bf = beta + f;
    const Fr bt = beta + t;
    add_constraint(bf * bt * h - (bt - m * bf));
    add_constraint(l0_x * s);
    add_constraint(lactive_x * (s_next - s - h));
    add_constraint(llast_x * (s + h));
  }
  if (num_chunks > 0) {
    const std::vector<Fr>& delta_pow = shape.delta_pow();
    add_constraint(l0_x * (eval_of(ProofShape::kPermZ, 0, 0) - Fr::One()));
    for (size_t c = 0; c < num_chunks; ++c) {
      const size_t col_begin = c * static_cast<size_t>(chunk_size);
      const size_t col_end = std::min(perm_cols.size(), col_begin + chunk_size);
      Fr num = Fr::One();
      Fr den = Fr::One();
      for (size_t i = col_begin; i < col_end; ++i) {
        const Fr f = resolve(ColumnQuery{perm_cols[i], 0});
        num *= f + beta * delta_pow[i] * x + gamma;
        den *= f + beta * eval_of(ProofShape::kSigma, i, 0) + gamma;
      }
      const Fr z = eval_of(ProofShape::kPermZ, c, 0);
      const size_t next = (c + 1) % num_chunks;
      add_constraint(lactive_x * (eval_of(ProofShape::kPermZ, c, 1) * den - z * num));
      add_constraint(llast_x * (eval_of(ProofShape::kPermZ, next, 1) * den - z * num));
    }
  }

  // Quotient identity: N(x) == q(x) * (x^n - 1) with q split into chunks.
  Fr q_at_x = Fr::Zero();
  const Fr x_n = x.Pow(U256::FromU64(n));
  Fr shift = Fr::One();
  for (size_t i = 0; i < comms[ProofShape::kQuotient].size(); ++i) {
    q_at_x += eval_of(ProofShape::kQuotient, i, 0) * shift;
    shift *= x_n;
  }
  if (!(numerator == q_at_x * dom.EvaluateVanishing(x))) {
    return VerifyResult::Rejected(
        VerifyStage::kVanishingCheck,
        VerifyFailedError("quotient identity N(x) != q(x)·(x^n - 1) at the challenge point "
                          "(some gate, lookup, or permutation constraint is unsatisfied)"));
  }

  // --- PCS opening checks, one batch per rotation group. ---
  section.emplace("pcs-openings");
  const ProofShape::PerSource<PcsCommitment> commitments = {
      &comms[ProofShape::kAdvice], &comms[ProofShape::kLookupM], &comms[ProofShape::kLookupHS],
      &comms[ProofShape::kPermZ],  &comms[ProofShape::kQuotient], &vk.fixed_commitments,
      &vk.sigma_commitments};
  for (const auto& [rotation, members] : shape.rotation_groups()) {
    std::vector<PcsCommitment> group_comms;
    std::vector<Fr> group_evals;
    for (size_t e : members) {
      group_comms.push_back(openings[e].Of(commitments));
      group_evals.push_back(evals[e]);
    }
    if (Status s = pcs.VerifyBatch(group_comms, group_evals, shape.RotationPoint(x, rotation),
                                   &transcript, proof, &offset);
        !s.ok()) {
      return VerifyResult::Rejected(
          VerifyStage::kPcsOpening,
          Status(s.code(), "opening at rotation " + std::to_string(rotation) + ": " + s.message()));
    }
  }
  // A lying IPA vector length can leave bytes the openings did not consume.
  if (Status s = ProofExpectEnd(proof, offset); !s.ok()) {
    return VerifyResult::Rejected(VerifyStage::kProofLength, std::move(s));
  }
  return VerifyResult::Accepted();
}

}  // namespace zkml
