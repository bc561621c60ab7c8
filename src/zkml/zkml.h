// Public API: compile an ML model to an optimized Plonkish circuit, produce
// ZK-SNARK proofs of its execution, and verify them. Mirrors the paper's
// two-stage user flow (§8): optimization (keys are model-specific) then
// proving (per input).
#ifndef SRC_ZKML_ZKML_H_
#define SRC_ZKML_ZKML_H_

#include <memory>
#include <string>
#include <vector>

#include "src/base/cancel.h"
#include "src/base/status.h"
#include "src/model/graph.h"
#include "src/obs/run_report.h"
#include "src/plonk/soundness.h"
#include "src/optimizer/optimizer.h"
#include "src/pcs/ipa.h"
#include "src/pcs/kzg.h"
#include "src/pcs/shared_pcs.h"
#include "src/plonk/keygen.h"
#include "src/plonk/prover.h"
#include "src/plonk/verifier.h"

namespace zkml {

struct ZkmlOptions {
  PcsKind backend = PcsKind::kKzg;
  OptimizerOptions optimizer;  // backend field is overwritten by `backend`
  uint64_t setup_seed = 42;
};

// A model compiled to a concrete circuit layout with generated keys.
struct CompiledModel {
  Model model;
  PhysicalLayout layout;
  CostEstimate predicted_cost;
  // The process-wide backend for (backend, setup_seed, 2^k), shared with
  // every other model compiled with the same triple (see SharedPcsBackend).
  std::shared_ptr<const Pcs> pcs;
  ProvingKey pk;  // pk.vk is the verifying key
  double optimizer_seconds = 0;
  // Acquiring the PCS backend: the SRS build on a process's first use of the
  // triple, a registry lookup afterwards.
  double setup_seconds = 0;
  double keygen_seconds = 0;
};

// The layout TryCompileModel compiles `batch` inferences of `model` with:
// options.optimizer under options.backend, ranked against the committed
// hardware profile. The pick depends on the arguments alone, so the prover,
// the verifier and `zkml_cli optimize` get the same circuit in any process.
// best.layout.k is 0 when no layout fits within max_k.
OptimizerResult ChooseLayout(const Model& model, const ZkmlOptions& options, size_t batch = 1);

// Compiles ChooseLayout's pick: builds the circuit for `batch` inferences and
// generates keys; no feasible layout within max_k is an InvalidArgument.
StatusOr<CompiledModel> TryCompileModel(const Model& model, const ZkmlOptions& options = {},
                                        size_t batch = 1);
// TryCompileModel for callers that treat an infeasible model as a bug.
CompiledModel CompileModel(const Model& model, const ZkmlOptions& options = {});
// Skips the optimizer and uses an explicit layout (ablation experiments).
CompiledModel CompileModelWithLayout(const Model& model, const PhysicalLayout& layout,
                                     const ZkmlOptions& options = {});

// What the one prove step produced for a compiled circuit and its N >= 1
// inputs (N is the layout's batch; 1 for a single-inference circuit).
struct ZkmlProof {
  std::vector<uint8_t> bytes;
  // Public statement: the instance column, per inference its input values
  // then its output values.
  std::vector<Fr> instance;
  // Inference i's segment of the statement is [segment_offsets[i],
  // segment_offsets[i + 1]); N + 1 entries.
  std::vector<size_t> segment_offsets;
  std::vector<Tensor<int64_t>> outputs_q;  // one per inference
  Tensor<int64_t> output_q;                // outputs_q[0]
  double witness_seconds = 0;
  double prove_seconds = 0;
  // Per-stage wall time and FFT/MSM op counts for the CreateProof call.
  ProverMetrics prover_metrics;
};

// InvalidArgument unless `inputs_q` holds exactly one input per inference of
// `compiled` (its layout's batch), each shaped as the model's input.
Status CheckInputs(const CompiledModel& compiled, const std::vector<Tensor<int64_t>>& inputs_q);

// The one witness -> prove step for every circuit kind: validates the inputs
// (CheckInputs), builds the circuit's witness under the "witness-gen" span and
// proves it. `cancel` may be null; when it fires the call returns kCancelled /
// kDeadlineExceeded at the next checkpoint (before witness generation and
// between prover rounds) instead of running the proof to completion. With a
// batch-1 layout the bytes are those of the single-inference circuit.
StatusOr<ZkmlProof> ProveCircuit(const CompiledModel& compiled,
                                 const std::vector<Tensor<int64_t>>& inputs_q,
                                 const CancelToken* cancel = nullptr);

// ProveCircuit for one input, for long-lived callers that hold a cancel token
// (the proving daemon's deadlines, the CLI's SIGINT handling).
StatusOr<ZkmlProof> ProveCancellable(const CompiledModel& compiled,
                                     const Tensor<int64_t>& input_q,
                                     const CancelToken* cancel);

// ProveCancellable for callers that treat a failed proof as a bug.
ZkmlProof Prove(const CompiledModel& compiled, const Tensor<int64_t>& input_q);

// Verifies a proof against its public statement, attributing any rejection to
// the stage that failed (see VerifyResult). Validates the instance length
// against the verifying key before entering the transcript: a wrong-sized
// instance vector is rejected up front rather than silently binding to a
// different statement.
VerifyResult VerifyDetailed(const VerifyingKey& vk, const Pcs& pcs,
                            const std::vector<Fr>& instance,
                            const std::vector<uint8_t>& proof_bytes);

// Thin boolean wrappers over VerifyDetailed.
bool Verify(const CompiledModel& compiled, const ZkmlProof& proof);
// Verifier-side entry point needing only the verifying key.
bool Verify(const VerifyingKey& vk, const Pcs& pcs, const std::vector<Fr>& instance,
            const std::vector<uint8_t>& proof_bytes);

// --- Soundness audit (the `zkml_cli audit` entry point). ---

struct SoundnessAuditOptions {
  uint64_t seed = 1;
  int mutations_per_cell = 4;
  // Also run the end-to-end forgery harness: prove honestly under both PCS
  // backends, then tamper the claimed output in the public statement and
  // require both verifiers to reject. Dominated by two keygens + four proof
  // verifications, so it is skippable for quick circuit-only audits.
  bool run_forgery = true;
  // Optional cooperative interruption (CLI SIGINT): the audit checks the
  // token between engines (compile, coverage, fuzz, each forgery backend)
  // and returns early with `interrupted` set instead of finishing.
  const CancelToken* cancel = nullptr;
};

struct SoundnessAudit {
  // True when the audit was cut short by its CancelToken; only the engines
  // that completed before the interrupt are populated, and Passed() returns
  // false (a partial audit is not a clean bill).
  bool interrupted = false;
  // The honest witness satisfies the circuit (precondition for the fuzzer;
  // reported so a completeness bug cannot masquerade as perfect soundness).
  bool witness_satisfied = false;
  CoverageReport coverage;
  MutationReport mutation;

  bool forgery_ran = false;
  bool honest_kzg_accepted = false;
  bool honest_ipa_accepted = false;
  bool forged_kzg_rejected = false;
  bool forged_ipa_rejected = false;

  // Everything held: witness satisfied, no dead gates/lookups, no surviving
  // mutants, and (when run) honest proofs accepted and forgeries rejected
  // under both backends.
  bool Passed() const;
  // The full "zkml.soundness/v1" document.
  obs::Json ToJson() const;
};

// Compiles the model, generates the witness for `input_q`, and runs all three
// soundness engines against it (coverage, mutation fuzzing, and — unless
// disabled — the output-forgery harness).
SoundnessAudit RunSoundnessAudit(const Model& model, const Tensor<int64_t>& input_q,
                                 const SoundnessAuditOptions& options = {});

// Assembles the machine-readable run report (schema "zkml.run_report/v1")
// from a compile→prove(→verify) run. `verify_seconds` is 0 when the proof was
// not verified in-process.
obs::RunReport BuildRunReport(const CompiledModel& compiled, const ZkmlProof& proof,
                              double verify_seconds = 0.0,
                              const std::string& model_name = "");

}  // namespace zkml

#endif  // SRC_ZKML_ZKML_H_
