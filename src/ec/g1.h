// BN254 G1 group arithmetic: y^2 = x^3 + 3 over Fq, prime order equal to the
// Fr modulus. Jacobian coordinates internally; affine points for storage,
// serialization and MSM bases.
#ifndef SRC_EC_G1_H_
#define SRC_EC_G1_H_

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/base/rng.h"
#include "src/ff/fields.h"

namespace zkml {

struct G1Affine {
  // Compressed encoding size: flag byte (0 infinity, 2/3 = y parity) then the
  // canonical x coordinate, little-endian. Every proof-byte size check and
  // reader/writer must use this constant, not a literal.
  static constexpr size_t kCompressedSize = 33;

  Fq x;
  Fq y;
  bool infinity = true;

  static G1Affine Identity() { return G1Affine{}; }
  static G1Affine Generator() {
    return G1Affine{Fq::FromU64(1), Fq::FromU64(2), /*infinity=*/false};
  }

  bool IsOnCurve() const;
  bool operator==(const G1Affine& o) const;

  std::array<uint8_t, kCompressedSize> Serialize() const;
  static bool Deserialize(const uint8_t* bytes, G1Affine* out);
};

class G1 {
 public:
  G1() = default;  // identity

  static G1 Identity() { return G1(); }
  static G1 Generator() { return FromAffine(G1Affine::Generator()); }
  static G1 FromAffine(const G1Affine& p);

  bool IsIdentity() const { return z_.IsZero(); }

  G1 Double() const;
  G1 operator+(const G1& o) const;
  G1 AddMixed(const G1Affine& o) const;
  G1 Neg() const;
  G1 operator-(const G1& o) const { return *this + o.Neg(); }
  G1& operator+=(const G1& o) { return *this = *this + o; }

  // Scalar multiplication by the canonical representation of s.
  G1 ScalarMul(const Fr& s) const;

  G1Affine ToAffine() const;
  // Normalizes `n` Jacobian points to affine with one shared field inversion
  // (Montgomery's batch trick) instead of one inversion per point.
  static void BatchToAffine(const G1* in, size_t n, G1Affine* out);
  bool operator==(const G1& o) const;

 private:
  // Jacobian: (X/Z^2, Y/Z^3); identity iff Z == 0.
  Fq x_;
  Fq y_ = Fq::FromU64(1);
  Fq z_;  // zero-initialized => identity
};

// s·G for the group generator G, through a precomputed comb table: at most
// 32 mixed additions and no doublings, several times cheaper than
// G1::Generator().ScalarMul(s) and equal to it. For setup work that
// multiplies the generator by many scalars (KZG powers of tau and Lagrange
// tables).
G1 GeneratorMul(const Fr& s);

// Multi-scalar multiplication sum_i scalars[i] * bases[i] using a parallel
// Pippenger bucket method with signed windows and batched-affine bucket
// accumulation. When the scalars take few distinct values (lookup helper
// columns, multiplicities, piecewise-constant sums), the bases sharing a
// value are summed first and Pippenger runs over one base per value; the
// result is the same group element. bases and scalars must have equal length.
G1 Msm(const std::vector<G1Affine>& bases, const std::vector<Fr>& scalars);

// Pointer form; lets callers commit to slices without copying into vectors.
G1 Msm(const G1Affine* bases, const Fr* scalars, size_t n);

namespace internal {

// Pippenger core with explicit window width c (4..15) and point-range chunk
// count; exposed so tests can cross-check the chunked-merge path directly.
G1 MsmImpl(const G1Affine* bases, const Fr* scalars, size_t n, int c, size_t num_chunks);

// The most distinct nonzero scalars an n-point Msm takes the grouped path
// with: the Pippenger cost-model crossover, with a factor-2 margin.
size_t MaxGroupedDistinct(size_t n);

// The grouped path: sums the bases of each distinct nonzero scalar, then runs
// Pippenger over the sums. Returns nullopt when
// the scalars hold more than max_distinct distinct nonzero values.
std::optional<G1> MsmGrouped(const G1Affine* bases, const Fr* scalars, size_t n,
                             size_t max_distinct);

}  // namespace internal

// Transforms monomial-basis commitment bases G_i into Lagrange-basis bases
// for the radix-2 domain of size n = bases.size() (a power of two):
//   L_j = sum_i M_ij * G_i,  M_ij = (1/n) * omega^{-ij},
// i.e. the size-n inverse FFT applied to the points (M is symmetric, so the
// transpose the commitment identity needs is the inverse FFT itself). For any
// linear commitment, commit(coeffs, G) == commit(evals, L) — which is what
// lets the prover commit straight from evaluation form. One-time setup work:
// butterflies are full scalar multiplications, parallelized across the pool.
std::vector<G1Affine> LagrangeBasesFromMonomial(const std::vector<G1Affine>& bases);

// Deterministically derives `count` independent curve points ("nothing up my
// sleeve" bases for Pedersen/IPA commitments) by rejection-sampling x
// coordinates from a seeded PRNG. Discrete logs between the results are
// unknown to everyone, which is what IPA binding requires.
std::vector<G1Affine> DeriveGenerators(uint64_t seed, size_t count);

}  // namespace zkml

#endif  // SRC_EC_G1_H_
