// Quickstart: build a small model, compile it to an optimized ZK-SNARK
// circuit, prove one inference, and verify the proof.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "src/model/float_executor.h"
#include "src/model/model_builder.h"
#include "src/model/zoo.h"
#include "src/zkml/zkml.h"

int main() {
  using namespace zkml;

  // 1. Describe the model (here: a 2-layer MLP classifier). In a real
  //    deployment this comes from a converted tflite/onnx checkpoint.
  QuantParams quant;
  quant.sf_bits = 6;
  quant.table_bits = 10;
  ModelBuilder mb("quickstart-mlp", Shape({16}), quant, /*seed=*/7);
  int t = mb.FullyConnected(mb.input(), 12);
  t = mb.Activation(t, NonlinFn::kRelu);
  t = mb.FullyConnected(t, 4);
  Model model = mb.Finish(t);
  std::printf("model: %s (%lld parameters)\n", model.name.c_str(),
              static_cast<long long>(model.NumParameters()));

  // 2. Compile: the optimizer picks gadget implementations, column count,
  //    and grid size; keys are generated for the chosen layout.
  ZkmlOptions options;
  options.backend = PcsKind::kKzg;
  options.optimizer.min_columns = 8;
  options.optimizer.max_columns = 20;
  CompiledModel compiled = CompileModel(model, options);
  std::printf("layout: %d columns x 2^%d rows (optimizer %.2fs, setup %.2fs, keygen %.2fs)\n",
              compiled.layout.num_columns, compiled.layout.k, compiled.optimizer_seconds,
              compiled.setup_seconds, compiled.keygen_seconds);

  // 3. Prove one inference.
  Tensor<float> input = SyntheticInput(model, 99);
  ZkmlProof proof = Prove(compiled, QuantizeTensor(input, quant));
  std::printf("proof: %zu bytes in %.2fs (witness %.3fs)\n", proof.bytes.size(),
              proof.prove_seconds, proof.witness_seconds);

  // 4. Verify: anyone holding the verifying key checks input -> output.
  const bool ok = Verify(compiled, proof);
  std::printf("verification: %s\n", ok ? "ACCEPTED" : "REJECTED");

  // The proven output matches the quantized model's logits.
  std::printf("proven logits:");
  for (int64_t i = 0; i < proof.output_q.NumElements(); ++i) {
    std::printf(" %.3f", DequantizeValue(proof.output_q.flat(i), quant));
  }
  std::printf("\n");
  return ok ? 0 : 1;
}
