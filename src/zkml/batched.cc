#include "src/zkml/batched.h"

#include "src/base/timer.h"
#include "src/compiler/compiler.h"
#include "src/obs/trace.h"
#include "src/plonk/prover.h"

namespace zkml {

StatusOr<CompiledBatchedModel> CompileBatched(const Model& model, size_t batch,
                                              const ZkmlOptions& options) {
  obs::Span span("batched-compile");
  if (batch == 0) {
    return InvalidArgumentError("batched compile: batch size must be at least 1");
  }
  Timer timer;
  CompiledBatchedModel out;
  ZKML_ASSIGN_OR_RETURN(out.compiled, TryCompileModel(model, options, batch));
  out.compile_seconds = timer.ElapsedSeconds();
  return out;
}

StatusOr<BatchedProof> CreateBatchedProof(const CompiledModel& compiled,
                                          const std::vector<Tensor<int64_t>>& inputs_q,
                                          const CancelToken* cancel) {
  obs::Span span("batched-prove");
  const size_t batch = std::max<size_t>(1, compiled.layout.batch);
  if (inputs_q.size() != batch) {
    return InvalidArgumentError("batched prove: got " + std::to_string(inputs_q.size()) +
                                " inputs, model compiled for batch " + std::to_string(batch));
  }
  const Model& model = compiled.model;
  for (size_t i = 0; i < inputs_q.size(); ++i) {
    if (inputs_q[i].NumElements() != model.input_shape.NumElements()) {
      return InvalidArgumentError(
          "batched prove: input " + std::to_string(i) + " has " +
          std::to_string(inputs_q[i].NumElements()) + " elements, model '" + model.name +
          "' expects " + std::to_string(model.input_shape.NumElements()));
    }
  }

  BatchedProof out;
  ZKML_RETURN_IF_ERROR(CheckCancel(cancel, "batched-witness"));
  Timer witness_timer;
  BuiltBatchedCircuit built = [&] {
    obs::Span witness_span("batched-witness-gen");
    return BuildBatchedCircuit(model, compiled.layout, inputs_q);
  }();
  out.witness_seconds = witness_timer.ElapsedSeconds();
  out.outputs_q = std::move(built.outputs_q);

  const Assignment& asn = built.builder->assignment();
  const std::vector<Fr>& inst = asn.instance()[0];
  out.instance.assign(inst.begin(), inst.begin() + built.num_instance_rows);
  out.artifact.kind = CompositeKind::kBatched;
  for (size_t i = 0; i < batch; ++i) {
    out.artifact.segments.emplace_back(out.instance.begin() + built.instance_offsets[i],
                                       out.instance.begin() + built.instance_offsets[i + 1]);
  }

  Timer prove_timer;
  ZKML_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                        CreateProofCancellable(compiled.pk, *compiled.pcs, asn, cancel,
                                               &out.prover_metrics));
  out.artifact.proofs.push_back(std::move(bytes));
  out.prove_seconds = prove_timer.ElapsedSeconds();
  return out;
}

VerifyResult VerifyBatchedDetailed(const CompiledModel& compiled,
                                   const std::vector<Fr>& instance,
                                   const std::vector<uint8_t>& artifact) {
  // A non-owning handle: `compiled` outlives the call.
  const std::shared_ptr<const CompiledModel> circuit(std::shared_ptr<void>(), &compiled);
  return VerifyComposite(CompositeKind::kBatched, {circuit}, instance, artifact);
}

bool VerifyBatched(const CompiledBatchedModel& compiled, const BatchedProof& proof) {
  return VerifyBatchedDetailed(compiled, proof.instance, EncodeCompositeProof(proof.artifact)).ok();
}

obs::Json BatchedReportJson(const CompiledModel& cm, const BatchedProof& proof,
                            double compile_seconds, double verify_seconds) {
  const size_t batch = std::max<size_t>(1, cm.layout.batch);
  obs::Json doc = obs::Json::Object();
  doc.Set("schema", kBatchedProofSchema);
  doc.Set("model", cm.model.name);
  doc.Set("backend", dynamic_cast<const KzgPcs*>(cm.pcs.get()) != nullptr ? "kzg" : "ipa");
  doc.Set("batch", static_cast<uint64_t>(batch));
  doc.Set("k", static_cast<uint64_t>(cm.layout.k));
  doc.Set("num_columns", static_cast<uint64_t>(cm.layout.num_columns));
  doc.Set("rows_used", static_cast<uint64_t>(cm.layout.rows_used));
  doc.Set("compile_seconds", compile_seconds);
  doc.Set("witness_seconds", proof.witness_seconds);
  doc.Set("prove_seconds", proof.prove_seconds);
  doc.Set("prove_seconds_per_inference",
          proof.prove_seconds / static_cast<double>(batch));
  doc.Set("verify_seconds", verify_seconds);
  doc.Set("proof_bytes", static_cast<uint64_t>(EncodeCompositeProof(proof.artifact).size()));
  doc.Set("plonk_proof_bytes", static_cast<uint64_t>(proof.artifact.proofs[0].size()));
  obs::Json segments = obs::Json::Array();
  for (const std::vector<Fr>& inst : proof.artifact.segments) {
    segments.Append(static_cast<uint64_t>(inst.size()));
  }
  doc.Set("instance_elements", std::move(segments));
  return doc;
}

}  // namespace zkml
