// One proof planner for every circuit kind: one circuit (raw plonk proof
// bytes), a chain of shard circuits (a "ZKSH" zkml.sharded_proof/v1 artifact,
// src/zkml/sharded.h) or one circuit over N inferences (a "ZKBP"
// zkml.batched_proof/v1 artifact, src/zkml/batched.h). Only PlanProof and
// PlanFromArtifact decide which; callers compile, prove and verify through
// the returned ProofPlan. Both composite kinds are one shape, a list of
// circuits proved over segments of one statement with their KZG openings
// folded into one accumulator, so they share one codec and one verifier, and
// every circuit is proved by the one prove step, ProveCircuit.
#ifndef SRC_ZKML_PROOF_PLAN_H_
#define SRC_ZKML_PROOF_PLAN_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/cancel.h"
#include "src/base/status.h"
#include "src/compiler/partition.h"
#include "src/obs/json.h"
#include "src/zkml/zkml.h"

namespace zkml {

using Circuits = std::vector<std::shared_ptr<const CompiledModel>>;

// --- Composite artifact ---
//   magic | u32 version | u32 count | segments x (u32 len, len Fr)
//         | proofs x (u32 len, bytes)
// ZKSH: count k shards, k+1 boundary-activation segments, k shard proofs.
// ZKBP: count n inferences, n [input ‖ output] segments, one proof.
enum class CompositeKind { kSharded, kBatched };

struct CompositeProof {
  CompositeKind kind = CompositeKind::kSharded;
  std::vector<std::vector<Fr>> segments;
  std::vector<std::vector<uint8_t>> proofs;
};

std::vector<uint8_t> EncodeCompositeProof(const CompositeProof& proof);
// The kind named by the magic; nullopt otherwise (a raw single-circuit proof
// starts with a point tag, never a magic).
std::optional<CompositeKind> CompositeKindOf(const std::vector<uint8_t>& bytes);
StatusOr<CompositeProof> DecodeCompositeProof(const std::vector<uint8_t>& bytes);

// Verifies a composite artifact against the full public statement. A segment
// map says which segments concatenate to the statement and to each circuit's
// instance (ZKSH: seg 0 ‖ seg k, and shard i = seg i ‖ seg i+1; ZKBP: both are
// seg 0 ‖ … ‖ seg n-1). A bad artifact, or a statement value disagreeing with
// its segment ("input boundary", "inference i"), fails at the kind's stitch
// stage; a wrong statement length at kInstance; a circuit at its own stage
// ("shard i/k: " blame); the one deferred KZG check at the aggregate stage.
VerifyResult VerifyComposite(CompositeKind kind, const Circuits& circuits,
                             const std::vector<Fr>& instance,
                             const std::vector<uint8_t>& artifact);

// One of K independent (vk, statement, proof) claims to verify together.
// Pointers are borrowed; they must outlive the VerifyProofsBatched call.
struct CrossProofClaim {
  const VerifyingKey* vk = nullptr;
  const Pcs* pcs = nullptr;
  const std::vector<Fr>* instance = nullptr;
  const std::vector<uint8_t>* proof = nullptr;
};

struct CrossProofVerdict {
  Status status;               // Ok iff every claim verified
  VerifyStage stage = VerifyStage::kAccepted;
  std::vector<size_t> blamed;  // indices of the claims blamed on rejection

  bool ok() const { return status.ok(); }
};

// Verifies K independent proofs with the composite verifier's loop: KZG
// openings fold into ONE RLC pairing check (claims must share a trapdoor
// seed), other backends verify inline. A proof's own failure is blamed as
// "proof j/K: "; a kBatchAggregate failure re-checks each deferred claim to
// name the forged one.
CrossProofVerdict VerifyProofsBatched(const std::vector<CrossProofClaim>& claims);

// --- The planner ---

// Invoked (possibly from pool threads) each time a shard's proof completes.
using ShardProgressFn = std::function<void(size_t shards_done, size_t shards_total)>;

// What a plan's prove step produced, in the shape every kind shares.
struct PlannedProof {
  std::vector<uint8_t> artifact;              // raw proof bytes or a composite artifact
  std::vector<Fr> instance;                   // the full public statement
  std::vector<std::vector<int64_t>> outputs;  // one per inference, in order
  obs::Json report;  // zkml.run_report/v1, .sharded_proof/v1 or .batched_proof/v1
};

struct ProofPlan {
  struct Circuit {
    const Model* model = nullptr;  // the planned model, or a shard the plan owns
    std::string key_suffix;        // cache-key suffix: "", ":shardI/K" or ":batchN"
  };
  using CompileFn = std::function<StatusOr<std::shared_ptr<const CompiledModel>>()>;
  // Runs circuit `circuit`'s compile step, `compile`: serve routes it through
  // its compiled-model cache.
  using CompileHook =
      std::function<StatusOr<std::shared_ptr<const CompiledModel>>(size_t circuit,
                                                                   const CompileFn& compile)>;

  // The response fields: shards >= 1; batch is 0 unless the plan is batched.
  uint32_t shards = 1;
  uint32_t batch = 0;
  // Names the kind in per-kind metric series: "", "shardsK" or "batchN".
  std::string label;
  std::vector<Circuit> circuits;

  size_t inferences() const { return batch > 1 ? batch : 1; }
  // Every circuit's compile step (optimizer, setup, keygen), concurrently on
  // the global pool; through `hook` when one is given.
  StatusOr<Circuits> CompileAll(const CompileHook& hook = nullptr) const;
  // Proves inferences() inputs; `compile_seconds` goes into the report. One
  // circuit (single or batched) is one ProveCircuit call; a shard chain runs
  // RunQuantized across the shards to fix every boundary, then ProveCircuit
  // per shard concurrently, then checks each shard's statement stitches.
  StatusOr<PlannedProof> Prove(const Circuits& compiled, const std::vector<Tensor<int64_t>>& inputs,
                               const CancelToken* cancel = nullptr, double compile_seconds = 0,
                               const ShardProgressFn& progress = nullptr) const;
  // What an interrupted prove leaves: a single circuit's compile-half run
  // report; null for the composite kinds.
  obs::Json PartialReport(const Circuits& compiled) const;
  VerifyResult Verify(const Circuits& compiled, const std::vector<Fr>& instance,
                      const std::vector<uint8_t>& artifact) const;

  // Set by the planner.
  std::optional<CompositeKind> composite;  // nullopt: one raw proof
  ZkmlOptions options;
  const Model* model = nullptr;  // the planned model
  // Sharded plans: the cut the circuits' models point into.
  std::shared_ptr<ModelPartition> partition;
};

// Rejects, before any compile, requests no plan can serve: shards and batch
// both above one, or a batch whose statement (batch x (input + output)
// values, one instance row each) exceeds 2^max_k rows.
Status CheckProofRequest(const Model& model, size_t shards, size_t batch,
                         const ZkmlOptions& options);

// The one kind rule: sharded when shards > 1 and ResolveShardCount > 1 (a
// model that cannot be cut is one circuit answering shards = 1); else
// batched when batch > 1; else single. `model` must outlive the plan.
StatusOr<ProofPlan> PlanProof(const Model& model, size_t shards, size_t batch,
                              const ZkmlOptions& options = {});

// The verifier's plan for `artifact`: its magic and count fix the circuits,
// and its segment lengths are checked against the model's shapes before
// anything is compiled.
StatusOr<ProofPlan> PlanFromArtifact(const Model& model, const std::vector<uint8_t>& artifact,
                                     const ZkmlOptions& options = {});

}  // namespace zkml

#endif  // SRC_ZKML_PROOF_PLAN_H_
