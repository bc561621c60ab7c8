// Proof of a training step (paper Table 2 lists training among ZKML's
// capabilities). This example builds the circuit at the gadget level: one SGD
// step of linear regression — forward pass, loss gradient, weight update —
// with the current weights as private witness. The updated weights are
// exposed publicly here for demonstration; a deployment would instead chain
// weight commitments across steps (paper §2, trustless audits).
//
//   $ ./examples/training_step
#include <cstdio>
#include <vector>

#include "src/base/rng.h"
#include "src/gadgets/circuit_builder.h"
#include "src/plonk/keygen.h"
#include "src/plonk/mock_prover.h"
#include "src/plonk/prover.h"
#include "src/plonk/verifier.h"
#include "src/zkml/zkml.h"

int main() {
  using namespace zkml;
  constexpr int64_t kDim = 8;
  constexpr double kLr = 0.25;  // learning rate

  BuilderOptions opts;
  opts.num_io_columns = 10;
  opts.quant.sf_bits = 6;
  opts.quant.table_bits = 10;
  opts.gadgets.nonlin_fns = {};
  opts.estimate_only = false;
  opts.k = 11;
  CircuitBuilder cb(opts);
  const QuantParams& qp = opts.quant;

  // Public training sample (x, y); private current weights w.
  Rng rng(9);
  std::vector<Operand> x, w;
  double y_target = 0.3;
  for (int64_t i = 0; i < kDim; ++i) {
    x.push_back(cb.PublicInput(QuantizeValue(rng.NextGaussian() * 0.4, qp)));
    w.push_back(cb.Fresh(QuantizeValue(rng.NextGaussian() * 0.3, qp)));
  }
  const Operand y = cb.PublicInput(QuantizeValue(y_target, qp));

  // Forward: pred = <w, x>.
  const Operand pred = cb.Rescale({cb.DotProduct(w, x, nullptr)})[0];
  // Loss gradient dL/dpred for L = (pred - y)^2 is 2*(pred - y).
  const Operand err = cb.Sub({{pred, y}})[0];
  const Operand err_scaled = cb.Mul({{err, cb.Constant(QuantizeValue(2.0 * kLr, qp))}})[0];
  // Update: w' = w - err_scaled * x, exposed publicly.
  std::vector<std::pair<Operand, Operand>> grad_pairs;
  for (int64_t i = 0; i < kDim; ++i) {
    grad_pairs.emplace_back(err_scaled, x[static_cast<size_t>(i)]);
  }
  const std::vector<Operand> grads = cb.Mul(grad_pairs);
  std::vector<std::pair<Operand, Operand>> upd_pairs;
  for (int64_t i = 0; i < kDim; ++i) {
    upd_pairs.emplace_back(w[static_cast<size_t>(i)], grads[static_cast<size_t>(i)]);
  }
  const std::vector<Operand> updated = cb.Sub(upd_pairs);
  for (const Operand& u : updated) {
    cb.ExposePublic(u);
  }
  cb.ExposePublic(pred);

  MockProver mp(&cb.cs(), &cb.assignment());
  if (!mp.IsSatisfied()) {
    std::printf("training circuit unsatisfied!\n");
    return 1;
  }

  auto pcs = SharedPcsBackend(PcsKind::kKzg, static_cast<size_t>(1) << opts.k, 5);
  ProvingKey pk = Keygen(cb.cs(), cb.assignment(), *pcs, opts.k);
  const std::vector<uint8_t> proof = CreateProof(pk, *pcs, cb.assignment());

  const std::vector<Fr>& inst = cb.assignment().instance()[0];
  std::vector<std::vector<Fr>> instance = {
      std::vector<Fr>(inst.begin(), inst.begin() + cb.NumInstanceRows())};
  const bool ok = VerifyProof(pk.vk, *pcs, instance, proof).ok();

  std::printf("one SGD step proven: prediction %.3f (target %.3f), proof %zu bytes, %s\n",
              DequantizeValue(pred.q, qp), y_target, proof.size(),
              ok ? "verified" : "REJECTED");
  std::printf("updated weights:");
  for (const Operand& u : updated) {
    std::printf(" %.3f", DequantizeValue(u.q, qp));
  }
  std::printf("\n");
  return ok ? 0 : 1;
}
