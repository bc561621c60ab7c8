// Batched multi-inference proving: N independent inferences of one model are
// laid out in a single circuit (src/compiler/compiler.h BuildBatchedCircuit),
// sharing fixed columns, lookup tables, and the permutation argument so
// per-inference proving cost falls below 1x as N grows. The circuit's public
// statement is the concatenation of per-inference [input ‖ output] segments;
// at N=1 the layout — and therefore the proof bytes — is identical to the
// single-circuit pipeline.
//
// Cross-proof batch verification (VerifyProofsBatched, CrossProofClaim) is
// declared in src/zkml/proof_plan.h, next to the composite verifier that
// shares its deferred-KZG loop.
#ifndef SRC_ZKML_BATCHED_H_
#define SRC_ZKML_BATCHED_H_

#include <memory>
#include <vector>

#include "src/base/cancel.h"
#include "src/base/status.h"
#include "src/obs/json.h"
#include "src/zkml/proof_plan.h"
#include "src/zkml/zkml.h"

namespace zkml {

// Schema name shared by the binary artifact ("ZKBP" magic, codec in
// src/zkml/proof_plan.h) and the JSON report document emitted for telemetry.
inline constexpr const char* kBatchedProofSchema = "zkml.batched_proof/v1";

// A model compiled for a fixed batch size: one circuit, one key pair, N
// replicated inference regions. Held by shared_ptr-friendly value semantics
// so the serving cache can share it across coalesced jobs.
struct CompiledBatchedModel {
  CompiledModel compiled;  // compiled.layout.batch == batch()
  double compile_seconds = 0;

  size_t batch() const { return compiled.layout.batch; }
};

// Runs the optimizer with the batch dimension threaded through layout
// simulation (whole-batch cost is what gets ranked) and generates keys for
// the batched circuit. batch == 1 yields exactly CompileModel's circuit.
StatusOr<CompiledBatchedModel> CompileBatched(const Model& model, size_t batch,
                                              const ZkmlOptions& options = {});

struct BatchedProof {
  // The ZKBP artifact: per-inference public statements, each
  // [input ‖ output], and ONE plonk proof covering every inference.
  CompositeProof artifact;
  // The circuit's statement: concatenation of the segments in order.
  std::vector<Fr> instance;
  std::vector<Tensor<int64_t>> outputs_q;  // one per inference
  double witness_seconds = 0;
  double prove_seconds = 0;
  ProverMetrics prover_metrics;
};

// Proves all `inputs` (size must equal compiled.layout.batch) in one
// circuit. With batch 1 the proof bytes are bit-identical to
// ProveCancellable's.
StatusOr<BatchedProof> CreateBatchedProof(const CompiledModel& compiled,
                                          const std::vector<Tensor<int64_t>>& inputs_q,
                                          const CancelToken* cancel = nullptr);
inline StatusOr<BatchedProof> CreateBatchedProof(const CompiledBatchedModel& compiled,
                                                 const std::vector<Tensor<int64_t>>& inputs_q,
                                                 const CancelToken* cancel = nullptr) {
  return CreateBatchedProof(compiled.compiled, inputs_q, cancel);
}

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
bool VerifyBatched(const CompiledBatchedModel& compiled, const BatchedProof& proof);

// The JSON report document (schema kBatchedProofSchema) for telemetry;
// includes prove_seconds_per_inference, the economics batching exists for.
obs::Json BatchedReportJson(const CompiledModel& compiled, const BatchedProof& proof,
                            double compile_seconds = 0.0, double verify_seconds = 0.0);
inline obs::Json BatchedReportJson(const CompiledBatchedModel& compiled,
                                   const BatchedProof& proof, double verify_seconds = 0.0) {
  return BatchedReportJson(compiled.compiled, proof, compiled.compile_seconds, verify_seconds);
}

}  // namespace zkml

#endif  // SRC_ZKML_BATCHED_H_
