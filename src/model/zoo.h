// The evaluation model zoo (paper Table 5), scaled so proofs take seconds on
// a laptop instead of hours on a 1TB AWS instance (DESIGN.md §2). Each model
// preserves the architecture family of its namesake: layer types, topology
// (residuals, attention, masking, depthwise separability), and non-linearity
// mix — the properties that drive circuit layout — with synthetic weights.
#ifndef SRC_MODEL_ZOO_H_
#define SRC_MODEL_ZOO_H_

#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/model/graph.h"

namespace zkml {

Model MakeMnistCnn();     // small CNN classifier (MNIST)
Model MakeResNetLite();   // residual CNN (ResNet-18 on CIFAR-10)
Model MakeVggLite();      // plain deep CNN (VGG-16 on CIFAR-10)
Model MakeMobileNetLite();// depthwise-separable CNN (MobileNetV2, ImageNet)
Model MakeDlrm();         // dense+embedding recommender with dot interactions
Model MakeMaskNet();      // Twitter's MaskNet recommender
Model MakeGpt2Lite();     // decoder transformer block (distilled GPT-2)
Model MakeDiffusionLite();// convolutional denoiser (latent diffusion)
// Additional architecture demonstrating the paper's LSTM support claim
// (Table 2 discussion, §4.1); not part of the Table 5 evaluation zoo.
Model MakeLstmLite();

// All zoo models, in the paper's Table 5 order (GPT-2 first).
std::vector<Model> AllZooModels();

// Lookup by model name (e.g. "mnist", "vgg16", "lstm"); InvalidArgument,
// naming every known model, for any other name.
StatusOr<Model> FindZooModel(const std::string& name);
// FindZooModel for internal callers; aborts on unknown names.
Model MakeZooModel(const std::string& name);

// A deterministic synthetic input for the model (values bounded so all
// activations stay within the lookup-table range).
Tensor<float> SyntheticInput(const Model& model, uint64_t seed);

}  // namespace zkml

#endif  // SRC_MODEL_ZOO_H_
