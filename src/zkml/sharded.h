// Sharded proving: the model DAG is cut at layer boundaries into k
// sub-circuits (src/compiler/partition.h), each proved concurrently on the
// ThreadPool, with the boundary activations carried as instance values that
// stitch adjacent shards together. Shard i's public statement is
// [boundary_i ‖ boundary_{i+1}]; the artifact stores each boundary vector
// exactly once, so adjacent shards cannot disagree about the activation they
// share. Under KZG the per-shard pairing checks are deferred and discharged
// by one random-linear-combination check (KzgAccumulator), so composite
// verification costs a single batched pairing instead of k.
//
// Sharded proofs are made through the planner (PlanProof with shards > 1,
// then ProofPlan::Prove, src/zkml/proof_plan.h), which also defines what this
// header declares.
#ifndef SRC_ZKML_SHARDED_H_
#define SRC_ZKML_SHARDED_H_

#include <vector>

#include "src/base/status.h"
#include "src/compiler/partition.h"
#include "src/zkml/proof_plan.h"
#include "src/zkml/zkml.h"

namespace zkml {

// Schema name shared by the binary artifact ("ZKSH" magic, codec in
// src/zkml/proof_plan.h) and the JSON report document emitted for telemetry.
inline constexpr const char* kShardedProofSchema = "zkml.sharded_proof/v1";

// A partitioned model with every shard compiled (layout + keys). Shards are
// held by shared_ptr so a serving cache can share per-shard compilations
// across sharded jobs.
struct CompiledShardedModel {
  Model model;  // the parent model
  ModelPartition partition;
  Circuits shards;

  size_t num_shards() const { return shards.size(); }
};

// Shard count actually used for `requested`: 0 means auto (one shard per
// hardware thread), and any request is clamped to [1, MaxShards(model)].
size_t ResolveShardCount(const Model& model, size_t requested);

// Partitions the model (cost-model balanced cuts) and compiles every shard
// concurrently, through the planner's sharded plan. `num_shards` is resolved
// via ResolveShardCount, so a model that cannot be cut yields one shard
// (PlanProof answers such a request with a single circuit instead).
StatusOr<CompiledShardedModel> CompileSharded(const Model& model, size_t num_shards,
                                              const ZkmlOptions& options = {});

// VerifyComposite over the shards: the statement is input values then output
// values, exactly as the single-circuit verifier sees them.
VerifyResult VerifySharded(const CompiledShardedModel& compiled,
                           const std::vector<Fr>& instance,
                           const std::vector<uint8_t>& artifact);

}  // namespace zkml

#endif  // SRC_ZKML_SHARDED_H_
