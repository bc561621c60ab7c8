#include "src/pcs/lagrange_basis.h"

#include "src/base/check.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace zkml {

const std::vector<G1Affine>& LagrangeBasisCache::Get(size_t n, size_t max_len,
                                                     const Builder& build) const {
  ZKML_CHECK_MSG(n != 0 && (n & (n - 1)) == 0,
                 "Lagrange commitment size must be a power of two");
  ZKML_CHECK_MSG(n <= max_len, "Lagrange commitment size exceeds setup");
  return by_size_.GetOrBuild(n, [&] {
    static obs::Counter& builds =
        obs::MetricsRegistry::Global().counter("pcs.lagrange_basis_builds");
    builds.Increment();
    obs::Span span("lagrange-basis-build");
    return build(n);
  });
}

}  // namespace zkml
