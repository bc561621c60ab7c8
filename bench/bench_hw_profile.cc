// Calibrates the optimizer's hardware profile (§7.4): times the FFT, MSM,
// lookup-construction and field-multiplication kernels at the profile's sizes
// kRuns times and prints the entry-wise medians as the C++ table that
// src/optimizer/cost_model.cc commits, stamped with the host it ran on.
//
// Pasting a new table is a circuit change: the optimizer may pick different
// layouts, so the golden-layout test in tests/compiler_test.cc says which
// models moved (see DESIGN.md §4, "Hardware profile").
#include <algorithm>
#include <string>
#include <unordered_map>

#include "bench/bench_util.h"
#include "src/base/rng.h"
#include "src/base/thread_pool.h"
#include "src/ec/g1.h"
#include "src/poly/domain.h"

namespace zkml {
namespace {

constexpr int kRuns = 25;

constexpr int KOf(size_t i) { return HardwareProfile::kFirstK + 2 * static_cast<int>(i); }

HardwareProfile Measure() {
  HardwareProfile hw;
  Rng rng(2024);

  {
    Fr a = Fr::Random(rng);
    Fr b = Fr::Random(rng);
    const int iters = 200000;
    Timer t;
    for (int i = 0; i < iters; ++i) {
      a = a * b;
    }
    hw.field_mul_seconds = t.ElapsedSeconds() / iters;
    if (a.IsZero()) {  // defeat dead-code elimination
      hw.field_mul_seconds += 1e-12;
    }
  }

  for (size_t i = 0; i < hw.fft_seconds.size(); ++i) {
    EvaluationDomain dom(KOf(i));
    std::vector<Fr> coeffs(dom.size());
    for (Fr& c : coeffs) {
      c = Fr::Random(rng);
    }
    Timer t;
    auto evals = dom.FftFromCoeffs(coeffs);
    hw.fft_seconds[i] = t.ElapsedSeconds();
  }

  {
    const std::vector<G1Affine> bases =
        DeriveGenerators(7, static_cast<size_t>(1) << KOf(hw.msm_seconds.size() - 1));
    for (size_t i = 0; i < hw.msm_seconds.size(); ++i) {
      const size_t n = static_cast<size_t>(1) << KOf(i);
      std::vector<G1Affine> b(bases.begin(), bases.begin() + n);
      std::vector<Fr> scalars(n);
      for (Fr& s : scalars) {
        s = Fr::Random(rng);
      }
      Timer t;
      G1 r = Msm(b, scalars);
      hw.msm_seconds[i] = t.ElapsedSeconds();
      if (r.IsIdentity()) {
        hw.msm_seconds[i] += 1e-12;
      }
    }
  }

  // Lookup construction: multiplicity hashing of a 2^k table.
  for (size_t i = 0; i < hw.lookup_seconds.size(); ++i) {
    const size_t n = static_cast<size_t>(1) << KOf(i);
    std::vector<Fr> table(n);
    for (Fr& v : table) {
      v = Fr::Random(rng);
    }
    Timer t;
    std::unordered_map<std::string, size_t> first;
    first.reserve(2 * n);
    for (size_t j = 0; j < n; ++j) {
      const U256 c = table[j].ToCanonical();
      first.emplace(std::string(reinterpret_cast<const char*>(c.limbs), 32), j);
    }
    hw.lookup_seconds[i] = t.ElapsedSeconds();
  }
  return hw;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

// Entry-wise median over `runs`, so one preempted kernel cannot move a pick.
HardwareProfile MedianProfile(const std::vector<HardwareProfile>& runs) {
  auto median_of = [&](auto field) {
    std::vector<double> v;
    for (const HardwareProfile& hw : runs) {
      v.push_back(field(hw));
    }
    return Median(std::move(v));
  };
  HardwareProfile out;
  for (size_t i = 0; i < out.fft_seconds.size(); ++i) {
    out.fft_seconds[i] = median_of([&](const HardwareProfile& hw) { return hw.fft_seconds[i]; });
  }
  for (size_t i = 0; i < out.msm_seconds.size(); ++i) {
    out.msm_seconds[i] = median_of([&](const HardwareProfile& hw) { return hw.msm_seconds[i]; });
  }
  for (size_t i = 0; i < out.lookup_seconds.size(); ++i) {
    out.lookup_seconds[i] =
        median_of([&](const HardwareProfile& hw) { return hw.lookup_seconds[i]; });
  }
  out.field_mul_seconds =
      median_of([](const HardwareProfile& hw) { return hw.field_mul_seconds; });
  return out;
}

template <size_t N>
std::string Row(const std::array<double, N>& values) {
  std::string out;
  for (size_t i = 0; i < N; ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.4g", i == 0 ? "" : ", ", values[i]);
    out += buf;
  }
  return out;
}

}  // namespace
}  // namespace zkml

int main() {
  using namespace zkml;
  std::vector<HardwareProfile> measured;
  for (int r = 0; r < kRuns; ++r) {
    measured.push_back(Measure());
  }
  const HardwareProfile hw = MedianProfile(measured);
  std::printf("// bench_hw_profile: entry-wise median of %d runs on\n// %s\n", kRuns,
              HostStampJson(ThreadPool::Global().num_threads()).c_str());
  std::printf("constexpr HardwareProfile kCommittedProfile = {\n");
  std::printf("    .fft_seconds = {%s},\n", Row(hw.fft_seconds).c_str());
  std::printf("    .msm_seconds = {%s},\n", Row(hw.msm_seconds).c_str());
  std::printf("    .lookup_seconds = {%s},\n", Row(hw.lookup_seconds).c_str());
  std::printf("    .field_mul_seconds = %.4g,\n};\n", hw.field_mul_seconds);
  return 0;
}
