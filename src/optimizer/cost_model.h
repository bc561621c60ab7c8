// The optimizer's cost model (paper §7.4, Eq. 1-2): proving time is dominated
// by FFTs, MSMs, lookup-table construction, and residual field arithmetic.
// Per-size primitive timings come from a one-time hardware profile.
#ifndef SRC_OPTIMIZER_COST_MODEL_H_
#define SRC_OPTIMIZER_COST_MODEL_H_

#include <array>
#include <cstddef>

#include "src/compiler/compiler.h"
#include "src/pcs/pcs.h"

namespace zkml {

// Kernel seconds at the sizes 2^k with k = 8, 10, 12, ... (kFirstK, then
// every second k); other sizes are extrapolated by the kernels' asymptotics.
struct HardwareProfile {
  static constexpr int kFirstK = 8;

  std::array<double, 4> fft_seconds{};     // k = 8, 10, 12, 14
  std::array<double, 3> msm_seconds{};     // k = 8, 10, 12
  std::array<double, 4> lookup_seconds{};  // k = 8, 10, 12, 14
  double field_mul_seconds = 0;

  // The committed profile every process ranks layouts with (cost_model.cc,
  // calibrated once by bench/bench_hw_profile). No process measures its own,
  // so the optimizer's choice is a pure function of (model, options) and a
  // verifier that recompiles gets the prover's circuit.
  static const HardwareProfile& Cached();

  double FftSeconds(int k) const;
  double MsmSeconds(int k) const;
  double LookupBuildSeconds(int k) const;
};

struct CostEstimate {
  double total_seconds = 0;
  double fft_seconds = 0;
  double msm_seconds = 0;
  double residual_seconds = 0;
  size_t n_ffts = 0;   // paper's n_FFT (size-2^k transforms)
  size_t n_msms = 0;
};

// Eq. (1)-(2): FFT count from column/lookup/permutation structure, MSM count
// from the commitment schedule, residual from lookup construction and gate
// evaluation on the extended domain.
CostEstimate EstimateProvingCost(const PhysicalLayout& layout, const HardwareProfile& hw,
                                 PcsKind backend);

// Predicted proof size in bytes (for the size-optimizing objective of §9.4).
size_t EstimateProofSize(const PhysicalLayout& layout, PcsKind backend);

}  // namespace zkml

#endif  // SRC_OPTIMIZER_COST_MODEL_H_
