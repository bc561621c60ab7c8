// Sharded proving: the model DAG is cut at layer boundaries into k
// sub-circuits (src/compiler/partition.h), each proved concurrently on the
// ThreadPool, with the boundary activations carried as instance values that
// stitch adjacent shards together. Shard i's public statement is
// [boundary_i ‖ boundary_{i+1}]; the artifact stores each boundary vector
// exactly once, so adjacent shards cannot disagree about the activation they
// share. Under KZG the per-shard pairing checks are deferred and discharged
// by one random-linear-combination check (KzgAccumulator), so composite
// verification costs a single batched pairing instead of k.
#ifndef SRC_ZKML_SHARDED_H_
#define SRC_ZKML_SHARDED_H_

#include <memory>
#include <vector>

#include "src/base/cancel.h"
#include "src/base/status.h"
#include "src/compiler/partition.h"
#include "src/obs/json.h"
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
  double compile_seconds = 0;

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

struct ShardedProof {
  // The ZKSH artifact: k+1 boundary activations as field elements (segment 0
  // the model input, segment k its output) and the k shard proofs.
  CompositeProof artifact;
  // Composite public statement: segment 0 ‖ segment k.
  std::vector<Fr> instance;
  Tensor<int64_t> output_q;
  double witness_seconds = 0;  // boundary-activation chain (sequential, cheap)
  double prove_seconds = 0;    // wall clock of the parallel prove phase
  std::vector<double> shard_prove_seconds;
};

// Chains the quantized executor through the shards to fix every boundary
// activation, then proves all shards concurrently on the global ThreadPool.
StatusOr<ShardedProof> CreateShardedProof(const CompiledShardedModel& compiled,
                                          const Tensor<int64_t>& input_q,
                                          const CancelToken* cancel = nullptr,
                                          const ShardProgressFn& progress = nullptr);

// VerifyComposite over the shards: the statement is input values then output
// values, exactly as the single-circuit verifier sees them.
VerifyResult VerifySharded(const CompiledShardedModel& compiled,
                           const std::vector<Fr>& instance,
                           const std::vector<uint8_t>& artifact);

// The JSON report document (schema kShardedProofSchema) for telemetry.
obs::Json ShardedReportJson(const CompiledShardedModel& compiled, const ShardedProof& proof,
                            double verify_seconds = 0.0);

}  // namespace zkml

#endif  // SRC_ZKML_SHARDED_H_
