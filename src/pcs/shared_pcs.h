// Process-wide PCS backends. Setup (KZG powers of tau, IPA generators) and
// the Lagrange tables a backend caches are paid once per process for each
// distinct (kind, seed, max_len), not once per compiled circuit: every caller
// asking for the same triple gets the same backend object, and concurrent
// first callers wait for one build. Backends and their tables are immutable
// once published and are held for the process lifetime, so the memory bound
// is one setup plus its tables per distinct triple.
//
// KZG powers are prefix-consistent (tau is drawn from the seed before the
// powers), so a KZG setup grown for a larger circuit serves smaller ones
// through a view whose max_len() stays the requested size. IPA's auxiliary
// generator u depends on the basis length, so IPA setups are shared only per
// exact (seed, max_len).
#ifndef SRC_PCS_SHARED_PCS_H_
#define SRC_PCS_SHARED_PCS_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/pcs/pcs.h"

namespace zkml {

// The shared backend for (kind, seed, max_len); max_len is a power of two.
std::shared_ptr<const Pcs> SharedPcsBackend(PcsKind kind, size_t max_len, uint64_t seed);

// KzgPcs::OpeningBytes or IpaPcs::OpeningBytes(k), by kind.
size_t OpeningBytes(PcsKind kind, int k);

}  // namespace zkml

#endif  // SRC_PCS_SHARED_PCS_H_
