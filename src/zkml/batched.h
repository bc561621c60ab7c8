// Batched multi-inference proving: N independent inferences of one model are
// laid out in a single circuit (src/compiler/compiler.h BuildBatchedCircuit),
// sharing fixed columns, lookup tables, and the permutation argument so
// per-inference proving cost falls below 1x as N grows. The circuit's public
// statement is the concatenation of per-inference [input ‖ output] segments;
// at N=1 the layout — and therefore the proof bytes — is identical to the
// single-circuit pipeline.
//
// Batched proofs are made through the planner (PlanProof with batch > 1, then
// ProofPlan::Prove, src/zkml/proof_plan.h), which also defines what this
// header declares. Cross-proof batch verification (VerifyProofsBatched,
// CrossProofClaim) is declared there too, next to the composite verifier
// that shares its deferred-KZG loop.
#ifndef SRC_ZKML_BATCHED_H_
#define SRC_ZKML_BATCHED_H_

#include <vector>

#include "src/base/status.h"
#include "src/zkml/proof_plan.h"
#include "src/zkml/zkml.h"

namespace zkml {

// Schema name shared by the binary artifact ("ZKBP" magic, codec in
// src/zkml/proof_plan.h) and the JSON report document emitted for telemetry.
inline constexpr const char* kBatchedProofSchema = "zkml.batched_proof/v1";

// A model compiled for a fixed batch size: one circuit, one key pair, N
// replicated inference regions.
struct CompiledBatchedModel {
  CompiledModel compiled;  // compiled.layout.batch == batch()

  size_t batch() const { return compiled.layout.batch; }
};

// Runs the optimizer with the batch dimension threaded through layout
// simulation (whole-batch cost is what gets ranked) and generates keys for
// the batched circuit. batch == 1 yields exactly CompileModel's circuit.
StatusOr<CompiledBatchedModel> CompileBatched(const Model& model, size_t batch,
                                              const ZkmlOptions& options = {});

// VerifyComposite over the one circuit: the statement is the concatenated
// per-inference segments, and a tampered one is blamed as "inference i".
VerifyResult VerifyBatchedDetailed(const CompiledModel& compiled,
                                   const std::vector<Fr>& instance,
                                   const std::vector<uint8_t>& artifact);
inline VerifyResult VerifyBatchedDetailed(const CompiledBatchedModel& compiled,
                                          const std::vector<Fr>& instance,
                                          const std::vector<uint8_t>& artifact) {
  return VerifyBatchedDetailed(compiled.compiled, instance, artifact);
}

}  // namespace zkml

#endif  // SRC_ZKML_BATCHED_H_
