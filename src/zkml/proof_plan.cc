#include "src/zkml/proof_plan.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "src/base/thread_pool.h"
#include "src/base/timer.h"
#include "src/layers/quant_executor.h"
#include "src/model/shape_inference.h"
#include "src/obs/trace.h"
#include "src/plonk/proof_io.h"
#include "src/zkml/batched.h"
#include "src/zkml/sharded.h"

namespace zkml {
namespace {

constexpr uint32_t kCompositeVersion = 1;

// What tells the two composite kinds apart on the wire and in rejections.
struct Format {
  uint8_t magic[4];
  const char* name;  // artifact and span prefix
  const char* unit;  // what the count counts
  VerifyStage stitch, aggregate;
};

constexpr Format kFormats[] = {
    {{'Z', 'K', 'S', 'H'}, "sharded", "shards", VerifyStage::kShardStitch,
     VerifyStage::kShardAggregate},
    {{'Z', 'K', 'B', 'P'}, "batched", "inferences", VerifyStage::kBatchStitch,
     VerifyStage::kBatchAggregate},
};

const Format& FormatOf(CompositeKind kind) { return kFormats[static_cast<int>(kind)]; }

// The u32 count: shards for ZKSH, inferences for ZKBP.
size_t CountOf(const CompositeProof& proof) {
  return proof.kind == CompositeKind::kSharded ? proof.proofs.size() : proof.segments.size();
}

size_t InputElements(const Model& model) {
  return static_cast<size_t>(model.input_shape.NumElements());
}

size_t OutputElements(const Model& model) {
  return static_cast<size_t>(InferShapes(model)[static_cast<size_t>(model.output_tensor)]
                                 .NumElements());
}

// Which segments make up the statement and each circuit's instance, and how
// many values each segment holds (fixed by the circuits' model shapes).
struct SegmentMap {
  std::vector<size_t> sizes;
  std::vector<size_t> statement;
  std::vector<std::vector<size_t>> circuits;
};

// `models` holds one model per circuit.
SegmentMap MapSegments(CompositeKind kind, const std::vector<const Model*>& models,
                       size_t batch) {
  SegmentMap map;
  if (kind == CompositeKind::kSharded) {
    const size_t k = models.size();
    for (size_t i = 0; i < k; ++i) {
      map.sizes.push_back(InputElements(*models[i]));
      map.circuits.push_back({i, i + 1});
    }
    map.sizes.push_back(OutputElements(*models.back()));
    map.statement = {0, k};
  } else {
    map.sizes.assign(batch, InputElements(*models[0]) + OutputElements(*models[0]));
    for (size_t i = 0; i < batch; ++i) map.statement.push_back(i);
    map.circuits = {map.statement};
  }
  return map;
}

std::string SegmentName(CompositeKind kind, size_t segment, size_t count) {
  if (kind == CompositeKind::kBatched) return "inference " + std::to_string(segment);
  if (segment == 0) return "input boundary";
  if (segment == count) return "output boundary";
  return "boundary " + std::to_string(segment);
}

// The artifact's counts and segment lengths against the map.
Status CheckSegments(const CompositeProof& proof, const SegmentMap& map) {
  const Format& f = FormatOf(proof.kind);
  if (proof.segments.size() != map.sizes.size() || proof.proofs.size() != map.circuits.size()) {
    const size_t want = proof.kind == CompositeKind::kSharded ? map.circuits.size()
                                                               : map.sizes.size();
    return InvalidArgumentError("artifact carries " + std::to_string(CountOf(proof)) + " " +
                                f.unit + ", the model was planned for " + std::to_string(want));
  }
  for (size_t s = 0; s < map.sizes.size(); ++s) {
    if (proof.segments[s].size() != map.sizes[s]) {
      return InvalidArgumentError(SegmentName(proof.kind, s, CountOf(proof)) +
                                  ": artifact segment has " +
                                  std::to_string(proof.segments[s].size()) +
                                  " values, the model fixes " + std::to_string(map.sizes[s]));
    }
  }
  return Status::Ok();
}

// The one deferred-KZG verify loop: KZG claims record their final opening
// into one accumulator checked once at the end; other backends verify
// inline. A claim's own failure is blamed as "<noun> j/K: " (no prefix when
// `noun` is null); an aggregate failure lands at `aggregate`.
CrossProofVerdict VerifyClaims(const std::vector<CrossProofClaim>& claims, VerifyStage aggregate,
                               const char* noun) {
  CrossProofVerdict verdict;
  if (claims.empty()) {
    verdict.status = InvalidArgumentError("cross-proof verify: no claims");
    verdict.stage = VerifyStage::kInstance;
    return verdict;
  }
  auto reject = [&](size_t j, VerifyStage stage, const Status& status) {
    const std::string who = noun == nullptr ? "" : std::string(noun) + " " + std::to_string(j) +
                                                       "/" + std::to_string(claims.size()) + ": ";
    verdict.status = Status(status.code(), who + status.message());
    verdict.stage = stage;
    verdict.blamed.push_back(j);
    return verdict;
  };
  KzgAccumulator accumulator;
  std::shared_ptr<const KzgSetup> setup;
  for (size_t j = 0; j < claims.size(); ++j) {
    const CrossProofClaim& c = claims[j];
    if (c.vk == nullptr || c.pcs == nullptr || c.instance == nullptr || c.proof == nullptr) {
      return reject(j, VerifyStage::kInstance,
                    InvalidArgumentError("cross-proof claim is incomplete"));
    }
    VerifyResult result;
    if (const auto* kzg = dynamic_cast<const KzgPcs*>(c.pcs)) {
      setup = kzg->shared_setup();
      accumulator.SetTag(j);
      KzgPcs deferred(setup, &accumulator);
      result = VerifyDetailed(*c.vk, deferred, *c.instance, *c.proof);
    } else {
      result = VerifyDetailed(*c.vk, *c.pcs, *c.instance, *c.proof);
    }
    // Transcript/evaluation failures are per-proof: blame is immediate.
    if (!result.ok()) return reject(j, result.stage, result.status);
  }
  if (accumulator.size() > 0) {
    const Status status = accumulator.Check(*setup, &verdict.blamed);
    if (!status.ok()) {
      verdict.status = status;
      verdict.stage = aggregate;
      return verdict;
    }
  }
  verdict.status = Status::Ok();
  return verdict;
}

// One circuit: single when `batch` is 0, else batched over `batch` inferences.
ProofPlan CircuitPlan(const Model& model, size_t batch, const ZkmlOptions& options) {
  ProofPlan plan;
  plan.options = options;
  plan.model = &model;
  plan.circuits.push_back({&model, ""});
  if (batch == 0) return plan;
  plan.composite = CompositeKind::kBatched;
  plan.batch = static_cast<uint32_t>(batch);
  plan.label = "batch" + std::to_string(batch);
  plan.circuits[0].key_suffix = ":" + plan.label;
  return plan;
}

StatusOr<ProofPlan> ShardedPlan(const Model& model, size_t k, const ZkmlOptions& options) {
  ProofPlan plan;
  plan.options = options;
  plan.composite = CompositeKind::kSharded;
  plan.model = &model;
  ZKML_ASSIGN_OR_RETURN(ModelPartition partition, PartitionModel(model, k));
  plan.partition = std::make_shared<ModelPartition>(std::move(partition));
  plan.shards = static_cast<uint32_t>(k);
  plan.label = "shards" + std::to_string(k);
  for (size_t i = 0; i < k; ++i) {
    plan.circuits.push_back({&plan.partition->shards[i].model,
                             ":shard" + std::to_string(i) + "/" + std::to_string(k)});
  }
  return plan;
}

const char* BackendName(const CompiledModel& compiled) {
  return compiled.pcs->kind() == PcsKind::kKzg ? "kzg" : "ipa";
}

// The zkml.batched_proof/v1 report; prove_seconds_per_inference is the
// economics batching exists for.
obs::Json BatchedReport(const CompiledModel& cm, const ZkmlProof& proof,
                        const CompositeProof& artifact, size_t artifact_bytes,
                        double compile_seconds) {
  const size_t batch = artifact.segments.size();
  obs::Json doc = obs::Json::Object();
  doc.Set("schema", kBatchedProofSchema);
  doc.Set("model", cm.model.name);
  doc.Set("backend", BackendName(cm));
  doc.Set("batch", static_cast<uint64_t>(batch));
  doc.Set("k", static_cast<uint64_t>(cm.layout.k));
  doc.Set("num_columns", static_cast<uint64_t>(cm.layout.num_columns));
  doc.Set("rows_used", static_cast<uint64_t>(cm.layout.rows_used));
  doc.Set("compile_seconds", compile_seconds);
  doc.Set("witness_seconds", proof.witness_seconds);
  doc.Set("prove_seconds", proof.prove_seconds);
  doc.Set("prove_seconds_per_inference", proof.prove_seconds / static_cast<double>(batch));
  doc.Set("verify_seconds", 0.0);
  doc.Set("proof_bytes", static_cast<uint64_t>(artifact_bytes));
  doc.Set("plonk_proof_bytes", static_cast<uint64_t>(artifact.proofs[0].size()));
  obs::Json segments = obs::Json::Array();
  for (const std::vector<Fr>& inst : artifact.segments) {
    segments.Append(static_cast<uint64_t>(inst.size()));
  }
  doc.Set("instance_elements", std::move(segments));
  return doc;
}

// The zkml.sharded_proof/v1 report.
obs::Json ShardedReport(const ProofPlan& plan, const Circuits& shards,
                        const CompositeProof& artifact, size_t artifact_bytes,
                        double compile_seconds, double witness_seconds, double prove_seconds,
                        const std::vector<double>& shard_prove_seconds) {
  obs::Json doc = obs::Json::Object();
  doc.Set("schema", kShardedProofSchema);
  doc.Set("model", plan.model->name);
  doc.Set("backend", BackendName(*shards.front()));
  doc.Set("num_shards", static_cast<uint64_t>(shards.size()));
  doc.Set("compile_seconds", compile_seconds);
  doc.Set("witness_seconds", witness_seconds);
  doc.Set("prove_wall_seconds", prove_seconds);
  double sum = 0, max = 0;
  for (double s : shard_prove_seconds) {
    sum += s;
    max = std::max(max, s);
  }
  doc.Set("prove_cpu_seconds", sum);
  doc.Set("max_shard_prove_seconds", max);
  doc.Set("verify_seconds", 0.0);
  doc.Set("proof_bytes", static_cast<uint64_t>(artifact_bytes));
  obs::Json boundaries = obs::Json::Array();
  for (const std::vector<Fr>& b : artifact.segments) {
    boundaries.Append(static_cast<uint64_t>(b.size()));
  }
  doc.Set("boundary_elements", std::move(boundaries));
  obs::Json list = obs::Json::Array();
  for (size_t i = 0; i < shards.size(); ++i) {
    const CompiledModel& shard = *shards[i];
    obs::Json s = obs::Json::Object();
    s.Set("name", shard.model.name);
    s.Set("k", static_cast<uint64_t>(shard.layout.k));
    s.Set("num_columns", static_cast<uint64_t>(shard.layout.num_columns));
    s.Set("rows_used", static_cast<uint64_t>(shard.layout.rows_used));
    s.Set("flops", static_cast<uint64_t>(plan.partition->shards[i].flops));
    s.Set("prove_seconds", shard_prove_seconds[i]);
    s.Set("proof_bytes", static_cast<uint64_t>(artifact.proofs[i].size()));
    list.Append(std::move(s));
  }
  doc.Set("shards", std::move(list));
  return doc;
}

// The instance encoding the circuit builder uses: one field element per
// activation value.
std::vector<Fr> BoundaryToFr(const Tensor<int64_t>& t) {
  std::vector<Fr> out;
  out.reserve(static_cast<size_t>(t.NumElements()));
  for (int64_t v : t.ToVector()) out.push_back(Fr::FromInt64(v));
  return out;
}

Status ShardStatus(size_t shard, size_t num_shards, const Status& status) {
  return Status(status.code(), "shard " + std::to_string(shard) + "/" +
                                   std::to_string(num_shards) + ": " + status.message());
}

// The sharded witness strategy. Chaining the quantized executor (the same
// fixed-point semantics the circuits constrain) fixes every boundary
// activation up front, so every shard's proof can start at once instead of
// waiting for upstream proofs.
StatusOr<PlannedProof> ProveShardChain(const ProofPlan& plan, const Circuits& shards,
                                       const Tensor<int64_t>& input, const CancelToken* cancel,
                                       double compile_seconds, const ShardProgressFn& progress) {
  const size_t k = shards.size();
  ZKML_RETURN_IF_ERROR(CheckInputs(*shards[0], {input}));
  ZKML_RETURN_IF_ERROR(CheckCancel(cancel, "sharded-witness"));
  Timer witness_timer;
  std::vector<Tensor<int64_t>> boundary_q = {input};
  for (size_t i = 0; i < k; ++i) {
    boundary_q.push_back(RunQuantized(shards[i]->model, boundary_q.back()));
  }
  const double witness_seconds = witness_timer.ElapsedSeconds();
  CompositeProof artifact;
  artifact.kind = CompositeKind::kSharded;
  for (const Tensor<int64_t>& b : boundary_q) artifact.segments.push_back(BoundaryToFr(b));

  Timer prove_timer;
  std::vector<std::optional<StatusOr<ZkmlProof>>> results(k);
  std::atomic<size_t> done{0};
  TaskGroup group;
  for (size_t i = 0; i < k; ++i) {
    group.Submit([&, i] {
      results[i].emplace(ProveCircuit(*shards[i], {boundary_q[i]}, cancel));
      const size_t n = done.fetch_add(1, std::memory_order_acq_rel) + 1;
      if (progress) progress(n, k);
    });
  }
  group.Wait();
  const double prove_seconds = prove_timer.ElapsedSeconds();

  std::vector<double> shard_prove_seconds(k);
  for (size_t i = 0; i < k; ++i) {
    StatusOr<ZkmlProof>& r = *results[i];
    if (!r.ok()) return ShardStatus(i, k, r.status());
    // The executor chain and the in-circuit witness must agree on every
    // boundary; a divergence here is a bug, not bad input, but surfacing it
    // as a Status keeps the daemon alive.
    std::vector<Fr> stitched = artifact.segments[i];
    stitched.insert(stitched.end(), artifact.segments[i + 1].begin(),
                    artifact.segments[i + 1].end());
    if (r->instance != stitched) {
      return ShardStatus(i, k,
                         InternalError("shard witness disagrees with the boundary "
                                       "activation chain (executor/circuit divergence)"));
    }
    artifact.proofs.push_back(std::move(r->bytes));
    shard_prove_seconds[i] = r->prove_seconds;
  }

  PlannedProof out;
  out.instance = artifact.segments.front();
  out.instance.insert(out.instance.end(), artifact.segments.back().begin(),
                      artifact.segments.back().end());
  out.outputs.push_back(boundary_q.back().ToVector());
  out.artifact = EncodeCompositeProof(artifact);
  out.report = ShardedReport(plan, shards, artifact, out.artifact.size(), compile_seconds,
                             witness_seconds, prove_seconds, shard_prove_seconds);
  return out;
}

}  // namespace

std::vector<uint8_t> EncodeCompositeProof(const CompositeProof& proof) {
  const Format& f = FormatOf(proof.kind);
  std::vector<uint8_t> out(f.magic, f.magic + 4);
  ProofAppendU32(&out, kCompositeVersion);
  ProofAppendU32(&out, static_cast<uint32_t>(CountOf(proof)));
  for (const std::vector<Fr>& segment : proof.segments) {
    ProofAppendU32(&out, static_cast<uint32_t>(segment.size()));
    for (const Fr& x : segment) ProofAppendFr(&out, x);
  }
  for (const std::vector<uint8_t>& p : proof.proofs) {
    ProofAppendU32(&out, static_cast<uint32_t>(p.size()));
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

std::optional<CompositeKind> CompositeKindOf(const std::vector<uint8_t>& bytes) {
  for (const CompositeKind kind : {CompositeKind::kSharded, CompositeKind::kBatched}) {
    if (bytes.size() >= 4 && std::equal(bytes.begin(), bytes.begin() + 4, FormatOf(kind).magic)) {
      return kind;
    }
  }
  return std::nullopt;
}

StatusOr<CompositeProof> DecodeCompositeProof(const std::vector<uint8_t>& bytes) {
  const std::optional<CompositeKind> kind = CompositeKindOf(bytes);
  if (!kind) return MalformedProofError("composite artifact: missing ZKSH/ZKBP magic");
  const std::string name = std::string(FormatOf(*kind).name) + " artifact";
  size_t offset = 4;
  uint32_t version = 0;
  ZKML_RETURN_IF_ERROR(ProofReadU32(bytes, &offset, &version, (name + " version").c_str()));
  if (version != kCompositeVersion) {
    return MalformedProofError(name + ": unsupported version " + std::to_string(version));
  }
  uint32_t count = 0;
  ZKML_RETURN_IF_ERROR(ProofReadU32(bytes, &offset, &count, (name + " count").c_str()));
  CompositeProof out;
  out.kind = *kind;
  const bool sharded = *kind == CompositeKind::kSharded;
  const size_t segments = sharded ? size_t{count} + 1 : count;
  const size_t proofs = sharded ? count : 1;
  // Each segment and proof has a length prefix: absurd counts die unallocated.
  if (count == 0 || (segments + proofs) * 4 > bytes.size() - offset) {
    return MalformedProofError(name + ": implausible count " + std::to_string(count));
  }
  auto read_len = [&](const char* what, size_t item_bytes, uint32_t* len) -> Status {
    ZKML_RETURN_IF_ERROR(ProofReadU32(bytes, &offset, len, what));
    if (static_cast<size_t>(*len) * item_bytes > bytes.size() - offset) {
      return MalformedProofError(name + ": " + what + " " + std::to_string(*len) +
                                 " exceeds remaining bytes at offset " + std::to_string(offset));
    }
    return Status::Ok();
  };
  uint32_t len = 0;
  out.segments.resize(segments);
  for (std::vector<Fr>& segment : out.segments) {
    ZKML_RETURN_IF_ERROR(read_len("segment length", kProofFrSize, &len));
    segment.resize(len);
    for (Fr& x : segment) ZKML_RETURN_IF_ERROR(ProofReadFr(bytes, &offset, &x, "segment value"));
  }
  out.proofs.resize(proofs);
  for (std::vector<uint8_t>& p : out.proofs) {
    ZKML_RETURN_IF_ERROR(read_len("proof length", 1, &len));
    p.assign(bytes.begin() + static_cast<ptrdiff_t>(offset),
             bytes.begin() + static_cast<ptrdiff_t>(offset + len));
    offset += len;
  }
  ZKML_RETURN_IF_ERROR(ProofExpectEnd(bytes, offset));
  return out;
}

VerifyResult VerifyComposite(CompositeKind kind, const Circuits& circuits,
                             const std::vector<Fr>& instance,
                             const std::vector<uint8_t>& artifact) {
  const Format& f = FormatOf(kind);
  obs::Span span(std::string(f.name) + "-verify");
  auto stitch = [&](Status status) { return VerifyResult::Rejected(f.stitch, std::move(status)); };
  if (circuits.empty()) return stitch(InvalidArgumentError("no circuits to verify against"));
  StatusOr<CompositeProof> proof = DecodeCompositeProof(artifact);
  if (!proof.ok()) return stitch(proof.status());
  if (proof->kind != kind) {
    return stitch(MalformedProofError(std::string("not a ") + f.name + " artifact"));
  }
  std::vector<const Model*> models;
  for (const auto& c : circuits) models.push_back(&c->model);
  const SegmentMap map =
      MapSegments(kind, models, std::max<size_t>(1, circuits[0]->layout.batch));
  if (Status s = CheckSegments(*proof, map); !s.ok()) return stitch(s);

  // The statement must be exactly its segments, in order: a disagreement
  // names the segment, before any proof is checked.
  size_t want = 0;
  for (size_t s : map.statement) want += map.sizes[s];
  if (instance.size() != want) {
    return VerifyResult::Rejected(
        VerifyStage::kInstance,
        InvalidArgumentError("statement has " + std::to_string(instance.size()) +
                             " values, the artifact's segments need " + std::to_string(want)));
  }
  size_t at = 0;
  for (size_t s : map.statement) {
    const std::vector<Fr>& segment = proof->segments[s];
    for (size_t j = 0; j < segment.size(); ++j, ++at) {
      if (!(instance[at] == segment[j])) {
        return stitch(VerifyFailedError(SegmentName(kind, s, CountOf(*proof)) +
                                        ": statement disagrees with the artifact at element " +
                                        std::to_string(j)));
      }
    }
  }

  // Each circuit against its stitched instance, openings deferred into one
  // aggregate check.
  std::vector<std::vector<Fr>> instances(map.circuits.size());
  std::vector<CrossProofClaim> claims;
  for (size_t i = 0; i < map.circuits.size(); ++i) {
    for (size_t s : map.circuits[i]) {
      instances[i].insert(instances[i].end(), proof->segments[s].begin(),
                          proof->segments[s].end());
    }
    claims.push_back({&circuits[i]->pk.vk, circuits[i]->pcs.get(), &instances[i],
                      &proof->proofs[i]});
  }
  const CrossProofVerdict verdict =
      VerifyClaims(claims, f.aggregate, kind == CompositeKind::kSharded ? "shard" : nullptr);
  return verdict.ok() ? VerifyResult::Accepted()
                      : VerifyResult::Rejected(verdict.stage, verdict.status);
}

size_t ResolveShardCount(const Model& model, size_t requested) {
  const size_t want = requested == 0 ? std::max<size_t>(1, std::thread::hardware_concurrency())
                                     : requested;
  return std::max<size_t>(1, std::min(want, MaxShards(model)));
}

StatusOr<CompiledShardedModel> CompileSharded(const Model& model, size_t num_shards,
                                              const ZkmlOptions& options) {
  obs::Span span("sharded-compile");
  ZKML_ASSIGN_OR_RETURN(ProofPlan plan,
                        ShardedPlan(model, ResolveShardCount(model, num_shards), options));
  CompiledShardedModel out;
  ZKML_ASSIGN_OR_RETURN(out.shards, plan.CompileAll());
  out.model = model;
  out.partition = std::move(*plan.partition);
  return out;
}

VerifyResult VerifySharded(const CompiledShardedModel& compiled,
                           const std::vector<Fr>& instance,
                           const std::vector<uint8_t>& artifact) {
  return VerifyComposite(CompositeKind::kSharded, compiled.shards, instance, artifact);
}

StatusOr<CompiledBatchedModel> CompileBatched(const Model& model, size_t batch,
                                              const ZkmlOptions& options) {
  obs::Span span("batched-compile");
  if (batch == 0) {
    return InvalidArgumentError("batched compile: batch size must be at least 1");
  }
  CompiledBatchedModel out;
  ZKML_ASSIGN_OR_RETURN(out.compiled, TryCompileModel(model, options, batch));
  return out;
}

VerifyResult VerifyBatchedDetailed(const CompiledModel& compiled,
                                   const std::vector<Fr>& instance,
                                   const std::vector<uint8_t>& artifact) {
  // A non-owning handle: `compiled` outlives the call.
  const std::shared_ptr<const CompiledModel> circuit(std::shared_ptr<void>(), &compiled);
  return VerifyComposite(CompositeKind::kBatched, {circuit}, instance, artifact);
}

CrossProofVerdict VerifyProofsBatched(const std::vector<CrossProofClaim>& claims) {
  obs::Span span("cross-proof-verify");
  return VerifyClaims(claims, VerifyStage::kBatchAggregate, "proof");
}

StatusOr<Circuits> ProofPlan::CompileAll(const CompileHook& hook) const {
  std::vector<std::optional<StatusOr<std::shared_ptr<const CompiledModel>>>> results(
      circuits.size());
  auto compile_one = [&](size_t i) {
    const CompileFn compile = [&, i]() -> StatusOr<std::shared_ptr<const CompiledModel>> {
      ZKML_ASSIGN_OR_RETURN(CompiledModel c,
                            TryCompileModel(*circuits[i].model, options, inferences()));
      return std::make_shared<const CompiledModel>(std::move(c));
    };
    results[i].emplace(hook ? hook(i, compile) : compile());
  };
  // Circuits are independent: several compile concurrently, one inline.
  if (circuits.size() == 1) {
    compile_one(0);
  } else {
    TaskGroup group;
    for (size_t i = 0; i < circuits.size(); ++i) {
      group.Submit([&, i] { compile_one(i); });
    }
    group.Wait();
  }
  Circuits out;
  for (std::optional<StatusOr<std::shared_ptr<const CompiledModel>>>& r : results) {
    if (!r->ok()) return r->status();
    out.push_back(std::move(**r));
  }
  return out;
}

StatusOr<PlannedProof> ProofPlan::Prove(const Circuits& compiled,
                                        const std::vector<Tensor<int64_t>>& inputs,
                                        const CancelToken* cancel, double compile_seconds,
                                        const ShardProgressFn& progress) const {
  if (compiled.size() != circuits.size() || inputs.size() != inferences()) {
    return InvalidArgumentError("prove: circuits or inputs do not match the plan");
  }
  std::optional<obs::Span> span;
  if (composite) span.emplace(std::string(FormatOf(*composite).name) + "-prove");
  if (composite == CompositeKind::kSharded) {
    return ProveShardChain(*this, compiled, inputs[0], cancel, compile_seconds, progress);
  }
  ZKML_ASSIGN_OR_RETURN(ZkmlProof proof, ProveCircuit(*compiled[0], inputs, cancel));
  PlannedProof out;
  for (const Tensor<int64_t>& output : proof.outputs_q) out.outputs.push_back(output.ToVector());
  if (!composite) {
    out.report = BuildRunReport(*compiled[0], proof).ToJson();
    out.artifact = std::move(proof.bytes);
  } else {
    CompositeProof artifact;
    artifact.kind = CompositeKind::kBatched;
    for (size_t i = 0; i + 1 < proof.segment_offsets.size(); ++i) {
      artifact.segments.emplace_back(proof.instance.begin() + proof.segment_offsets[i],
                                     proof.instance.begin() + proof.segment_offsets[i + 1]);
    }
    artifact.proofs.push_back(std::move(proof.bytes));
    out.artifact = EncodeCompositeProof(artifact);
    out.report = BatchedReport(*compiled[0], proof, artifact, out.artifact.size(),
                               compile_seconds);
  }
  out.instance = std::move(proof.instance);
  return out;
}

obs::Json ProofPlan::PartialReport(const Circuits& compiled) const {
  if (composite || compiled.empty()) return obs::Json();
  return BuildRunReport(*compiled[0], ZkmlProof{}).ToJson();
}

VerifyResult ProofPlan::Verify(const Circuits& compiled, const std::vector<Fr>& instance,
                               const std::vector<uint8_t>& artifact) const {
  if (composite) return VerifyComposite(*composite, compiled, instance, artifact);
  if (compiled.size() != 1) {
    return VerifyResult::Rejected(VerifyStage::kInstance,
                                  InvalidArgumentError("verify: one circuit expected"));
  }
  return VerifyDetailed(compiled[0]->pk.vk, *compiled[0]->pcs, instance, artifact);
}

Status CheckProofRequest(const Model& model, size_t shards, size_t batch,
                         const ZkmlOptions& options) {
  if (shards > 1 && batch > 1) {
    return InvalidArgumentError("both sharded (" + std::to_string(shards) + ") and batched (" +
                                std::to_string(batch) + ") proving requested; pick one");
  }
  // One instance row per statement value, so this bound never rejects a
  // feasible batch, and it costs no optimizer run.
  const int max_k = std::clamp(options.optimizer.max_k, 0, 62);
  const size_t per = InputElements(model) + OutputElements(model);
  if (batch > 1 && per > 0 && batch > (size_t{1} << max_k) / per) {
    return OutOfRangeError("batch " + std::to_string(batch) + " needs " + std::to_string(batch) +
                           " x " + std::to_string(per) + " statement rows, more than the 2^" +
                           std::to_string(max_k) +
                           " a circuit holds (shrink the batch or raise max_k)");
  }
  return Status::Ok();
}

StatusOr<ProofPlan> PlanProof(const Model& model, size_t shards, size_t batch,
                              const ZkmlOptions& options) {
  ZKML_RETURN_IF_ERROR(CheckProofRequest(model, shards, batch, options));
  if (shards > 1 && ResolveShardCount(model, shards) > 1) {
    return ShardedPlan(model, ResolveShardCount(model, shards), options);
  }
  return CircuitPlan(model, batch > 1 ? batch : 0, options);
}

StatusOr<ProofPlan> PlanFromArtifact(const Model& model, const std::vector<uint8_t>& artifact,
                                     const ZkmlOptions& options) {
  if (!CompositeKindOf(artifact)) return CircuitPlan(model, 0, options);
  ZKML_ASSIGN_OR_RETURN(CompositeProof proof, DecodeCompositeProof(artifact));
  ProofPlan plan;
  if (proof.kind == CompositeKind::kSharded) {
    // PartitionModel refuses more shards than the graph can be cut into.
    ZKML_ASSIGN_OR_RETURN(plan, ShardedPlan(model, proof.proofs.size(), options));
  } else {
    ZKML_RETURN_IF_ERROR(CheckProofRequest(model, 1, proof.segments.size(), options));
    plan = CircuitPlan(model, proof.segments.size(), options);
  }
  std::vector<const Model*> models;
  for (const ProofPlan::Circuit& c : plan.circuits) models.push_back(c.model);
  ZKML_RETURN_IF_ERROR(CheckSegments(proof, MapSegments(proof.kind, models, plan.inferences())));
  return plan;
}

}  // namespace zkml
