#include "src/zkml/sharded.h"

#include <atomic>
#include <optional>
#include <thread>

#include "src/base/thread_pool.h"
#include "src/base/timer.h"
#include "src/layers/quant_executor.h"
#include "src/obs/trace.h"

namespace zkml {
namespace {

// The instance encoding the circuit builder uses: one field element per
// activation value, inputs first.
std::vector<Fr> BoundaryToFr(const Tensor<int64_t>& t) {
  std::vector<Fr> out;
  out.reserve(static_cast<size_t>(t.NumElements()));
  for (int64_t v : t.ToVector()) {
    out.push_back(Fr::FromInt64(v));
  }
  return out;
}

Status ShardStatus(size_t shard, size_t num_shards, const Status& status) {
  return Status(status.code(), "shard " + std::to_string(shard) + "/" +
                                   std::to_string(num_shards) + ": " + status.message());
}

}  // namespace

size_t ResolveShardCount(const Model& model, size_t requested) {
  const size_t max_shards = MaxShards(model);
  size_t want = requested;
  if (want == 0) {
    want = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  return std::max<size_t>(1, std::min(want, max_shards));
}

StatusOr<ShardedProof> CreateShardedProof(const CompiledShardedModel& compiled,
                                          const Tensor<int64_t>& input_q,
                                          const CancelToken* cancel,
                                          const ShardProgressFn& progress) {
  obs::Span span("sharded-prove");
  const size_t k = compiled.num_shards();
  if (k == 0) {
    return InvalidArgumentError("sharded prove: model compiled into zero shards");
  }
  if (input_q.NumElements() != compiled.model.input_shape.NumElements()) {
    return InvalidArgumentError("sharded prove: input has " +
                                std::to_string(input_q.NumElements()) + " elements, model '" +
                                compiled.model.name + "' expects " +
                                std::to_string(compiled.model.input_shape.NumElements()));
  }

  ShardedProof out;
  ZKML_RETURN_IF_ERROR(CheckCancel(cancel, "sharded-witness"));

  // Fix every boundary activation up front by chaining the quantized executor
  // (the same fixed-point semantics the circuits constrain); proving can then
  // start on every shard at once instead of waiting for upstream proofs.
  Timer witness_timer;
  std::vector<Tensor<int64_t>> boundary_q;
  boundary_q.reserve(k + 1);
  boundary_q.push_back(input_q);
  for (size_t i = 0; i < k; ++i) {
    boundary_q.push_back(RunQuantized(compiled.shards[i]->model, boundary_q.back()));
  }
  out.witness_seconds = witness_timer.ElapsedSeconds();
  out.output_q = boundary_q.back();
  std::vector<std::vector<Fr>>& boundaries = out.artifact.segments;
  for (const Tensor<int64_t>& b : boundary_q) {
    boundaries.push_back(BoundaryToFr(b));
  }
  out.instance = boundaries.front();
  out.instance.insert(out.instance.end(), boundaries.back().begin(), boundaries.back().end());

  Timer prove_timer;
  std::vector<std::optional<StatusOr<ZkmlProof>>> results(k);
  std::atomic<size_t> done{0};
  TaskGroup group;
  for (size_t i = 0; i < k; ++i) {
    group.Submit([&, i] {
      results[i].emplace(ProveCancellable(*compiled.shards[i], boundary_q[i], cancel));
      const size_t n = done.fetch_add(1, std::memory_order_acq_rel) + 1;
      if (progress) {
        progress(n, k);
      }
    });
  }
  group.Wait();
  out.prove_seconds = prove_timer.ElapsedSeconds();

  out.artifact.proofs.resize(k);
  out.shard_prove_seconds.resize(k);
  for (size_t i = 0; i < k; ++i) {
    StatusOr<ZkmlProof>& r = *results[i];
    if (!r.ok()) {
      return ShardStatus(i, k, r.status());
    }
    // The executor chain and the in-circuit witness must agree on every
    // boundary; a divergence here is a bug, not bad input, but surfacing it
    // as a Status keeps the daemon alive.
    std::vector<Fr> stitched = boundaries[i];
    stitched.insert(stitched.end(), boundaries[i + 1].begin(), boundaries[i + 1].end());
    if (r->instance != stitched) {
      return ShardStatus(i, k,
                         InternalError("shard witness disagrees with the boundary "
                                       "activation chain (executor/circuit divergence)"));
    }
    out.artifact.proofs[i] = std::move(r->bytes);
    out.shard_prove_seconds[i] = r->prove_seconds;
  }
  return out;
}

VerifyResult VerifySharded(const CompiledShardedModel& compiled,
                           const std::vector<Fr>& instance,
                           const std::vector<uint8_t>& artifact) {
  return VerifyComposite(CompositeKind::kSharded, compiled.shards, instance, artifact);
}

obs::Json ShardedReportJson(const CompiledShardedModel& compiled, const ShardedProof& proof,
                            double verify_seconds) {
  obs::Json doc = obs::Json::Object();
  doc.Set("schema", kShardedProofSchema);
  doc.Set("model", compiled.model.name);
  const bool kzg = dynamic_cast<const KzgPcs*>(compiled.shards.front()->pcs.get()) != nullptr;
  doc.Set("backend", kzg ? "kzg" : "ipa");
  doc.Set("num_shards", static_cast<uint64_t>(compiled.num_shards()));
  doc.Set("compile_seconds", compiled.compile_seconds);
  doc.Set("witness_seconds", proof.witness_seconds);
  doc.Set("prove_wall_seconds", proof.prove_seconds);
  double sum = 0, max = 0;
  for (double s : proof.shard_prove_seconds) {
    sum += s;
    max = std::max(max, s);
  }
  doc.Set("prove_cpu_seconds", sum);
  doc.Set("max_shard_prove_seconds", max);
  doc.Set("verify_seconds", verify_seconds);
  doc.Set("proof_bytes", static_cast<uint64_t>(EncodeCompositeProof(proof.artifact).size()));
  obs::Json boundaries = obs::Json::Array();
  for (const std::vector<Fr>& b : proof.artifact.segments) {
    boundaries.Append(static_cast<uint64_t>(b.size()));
  }
  doc.Set("boundary_elements", std::move(boundaries));
  obs::Json shards = obs::Json::Array();
  for (size_t i = 0; i < compiled.num_shards(); ++i) {
    const CompiledModel& shard = *compiled.shards[i];
    obs::Json s = obs::Json::Object();
    s.Set("name", shard.model.name);
    s.Set("k", static_cast<uint64_t>(shard.layout.k));
    s.Set("num_columns", static_cast<uint64_t>(shard.layout.num_columns));
    s.Set("rows_used", static_cast<uint64_t>(shard.layout.rows_used));
    if (i < compiled.partition.shards.size()) {
      s.Set("flops", static_cast<uint64_t>(compiled.partition.shards[i].flops));
    }
    if (i < proof.shard_prove_seconds.size()) {
      s.Set("prove_seconds", proof.shard_prove_seconds[i]);
    }
    if (i < proof.artifact.proofs.size()) {
      s.Set("proof_bytes", static_cast<uint64_t>(proof.artifact.proofs[i].size()));
    }
    shards.Append(std::move(s));
  }
  doc.Set("shards", std::move(shards));
  return doc;
}

}  // namespace zkml
