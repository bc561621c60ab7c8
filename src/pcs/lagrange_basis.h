// Per-backend cache of Lagrange-basis SRS tables, keyed by domain size. Each
// backend supplies the builder (KZG derives the table from its trapdoor, IPA
// runs a G1 inverse FFT of its monomial bases — see LagrangeBasesFromMonomial).
// Building is setup-class work: each table is built once per (backend, size),
// and every prover round that commits from evaluation form afterwards is a
// plain MSM against the cached table.
#ifndef SRC_PCS_LAGRANGE_BASIS_H_
#define SRC_PCS_LAGRANGE_BASIS_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "src/base/once_map.h"
#include "src/ec/g1.h"

namespace zkml {

class LagrangeBasisCache {
 public:
  using Builder = std::function<std::vector<G1Affine>(size_t n)>;

  // Lagrange bases for the size-n domain. n must be a power of two no larger
  // than max_len. The first caller for a size runs build(n) under the span
  // `lagrange-basis-build`; concurrent callers wait for that build. The
  // returned reference stays valid for the cache's lifetime.
  const std::vector<G1Affine>& Get(size_t n, size_t max_len, const Builder& build) const;

 private:
  OnceMap<size_t, std::vector<G1Affine>> by_size_;
};

}  // namespace zkml

#endif  // SRC_PCS_LAGRANGE_BASIS_H_
