#include "src/optimizer/cost_model.h"

#include <algorithm>
#include <cmath>

namespace zkml {
namespace {

// The committed hardware profile: bench/bench_hw_profile's entry-wise median
// of 25 runs on a 4-CPU Intel Xeon (adx+avx2+avx512+avx512ifma, 4 pool
// threads, at 4275a531581c). Every process ranks layouts with it, so editing
// it is a circuit change: OptimizerTest.GoldenLayoutsUnderTheCommittedProfile
// names every zoo pick that moves.
constexpr HardwareProfile kCommittedProfile = {
    .fft_seconds = {5.239e-05, 0.0002495, 0.00101, 0.003077},
    .msm_seconds = {0.003968, 0.003299, 0.009071},
    .lookup_seconds = {2.952e-05, 8.53e-05, 0.0003133, 0.001362},
    .field_mul_seconds = 3.015e-08,
};

// A measured size's seconds as they are; any other size scales the next
// larger measured one (the nearest, outside the measured range) by
// time ~ n * (1 + log_factor * log n).
template <size_t N>
double Lookup(const std::array<double, N>& table, int k, double log_factor) {
  constexpr int kLastK = HardwareProfile::kFirstK + 2 * (static_cast<int>(N) - 1);
  const int ref_k = std::clamp(k + (k & 1), HardwareProfile::kFirstK, kLastK);
  const double ref = table[static_cast<size_t>((ref_k - HardwareProfile::kFirstK) / 2)];
  if (ref_k == k) {
    return ref;
  }
  auto measure_cost = [&](int kk) {
    const double n = std::pow(2.0, kk);
    return n * (1.0 + log_factor * kk);
  };
  return ref * measure_cost(k) / measure_cost(ref_k);
}

}  // namespace

const HardwareProfile& HardwareProfile::Cached() { return kCommittedProfile; }

double HardwareProfile::FftSeconds(int k) const { return Lookup(fft_seconds, k, 1.0); }
double HardwareProfile::MsmSeconds(int k) const { return Lookup(msm_seconds, k, 0.0); }
double HardwareProfile::LookupBuildSeconds(int k) const { return Lookup(lookup_seconds, k, 0.0); }

CostEstimate EstimateProvingCost(const PhysicalLayout& layout, const HardwareProfile& hw,
                                 PcsKind backend) {
  CostEstimate est;
  const int k = layout.k;
  const int d = layout.max_degree;
  const int k_ext = k + layout.ext_k;  // k' = k + ceil(log2(d_max - 1))

  // Eq. (2): n_FFT = N_i + N_a + 3*N_lk + ceil(N_pm / (d-2)).
  const size_t perm_term = layout.num_perm == 0
                               ? 0
                               : (layout.num_perm + static_cast<size_t>(d) - 3) /
                                     (static_cast<size_t>(d) - 2);
  est.n_ffts = layout.num_instance + layout.num_advice + 3 * layout.num_lookups + perm_term;
  const size_t n_fft_ext = est.n_ffts + 1;

  // Eq. (1).
  est.fft_seconds = static_cast<double>(est.n_ffts) * hw.FftSeconds(k) +
                    static_cast<double>(n_fft_ext) * hw.FftSeconds(k_ext);

  // MSM schedule: n_FFT + d - 1 for KZG, one more for IPA.
  est.n_msms = est.n_ffts + static_cast<size_t>(d) - 1 + (backend == PcsKind::kIpa ? 1 : 0);
  est.msm_seconds = static_cast<double>(est.n_msms) * hw.MsmSeconds(k);

  // Residual: lookup construction plus gate evaluation on the extended domain.
  const double ext_n = std::pow(2.0, k_ext);
  est.residual_seconds = static_cast<double>(layout.num_lookups) * hw.LookupBuildSeconds(k) +
                         static_cast<double>(layout.num_gates + 3 * layout.num_lookups +
                                             2 * layout.num_perm) *
                             ext_n * hw.field_mul_seconds * 3.0;

  est.total_seconds = est.fft_seconds + est.msm_seconds + est.residual_seconds;
  return est;
}

size_t EstimateProofSize(const PhysicalLayout& layout, PcsKind backend) {
  const size_t ext_factor = static_cast<size_t>(1) << layout.ext_k;
  const size_t commitments =
      layout.num_advice + 3 * layout.num_lookups + layout.num_perm_chunks + ext_factor;
  // Evaluations: every committed poly opened at least once, plus rotated
  // openings for lookups/permutation, plus fixed-column evaluations.
  const size_t evals = layout.num_advice + layout.num_fixed + layout.num_perm +
                       4 * layout.num_lookups + 2 * layout.num_perm_chunks + ext_factor;
  size_t opening_bytes;
  const size_t groups = 2;  // rotations {0, +1}
  if (backend == PcsKind::kKzg) {
    opening_bytes = groups * 33;
  } else {
    const size_t rounds = static_cast<size_t>(layout.k);
    opening_bytes = groups * (4 + rounds * 2 * 33 + 32);
  }
  return commitments * 33 + evals * 32 + opening_bytes;
}

}  // namespace zkml
