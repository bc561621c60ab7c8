// Dense univariate polynomials over Fr in coefficient form, plus the handful
// of algebraic operations the PLONK prover needs (Horner evaluation, synthetic
// division by a linear factor for KZG openings, naive products for tests).
#ifndef SRC_POLY_POLYNOMIAL_H_
#define SRC_POLY_POLYNOMIAL_H_

#include <cstddef>
#include <vector>

#include "src/ff/fields.h"

namespace zkml {

// Horner evaluation of the polynomial with coefficients `coeffs` at x.
Fr EvaluateCoeffs(const std::vector<Fr>& coeffs, const Fr& x);

class Poly {
 public:
  Poly() = default;
  explicit Poly(std::vector<Fr> coeffs) : coeffs_(std::move(coeffs)) {}

  static Poly Zero() { return Poly(); }
  static Poly Constant(const Fr& c) { return Poly({c}); }

  const std::vector<Fr>& coeffs() const { return coeffs_; }
  std::vector<Fr>& coeffs() { return coeffs_; }
  size_t size() const { return coeffs_.size(); }
  bool IsZero() const;

  // Degree of the polynomial, -1 for the zero polynomial.
  int Degree() const;

  Fr Evaluate(const Fr& x) const;

  Poly operator+(const Poly& o) const;
  Poly operator-(const Poly& o) const;
  // Naive O(n*m) product — used by tests and tiny fixed polynomials only.
  Poly operator*(const Poly& o) const;
  Poly ScalarMul(const Fr& s) const;

  // Divides by (X - z); the remainder is p(z) and is returned via *remainder
  // when non-null. The quotient has degree deg(p) - 1.
  Poly DivideByLinear(const Fr& z, Fr* remainder = nullptr) const;

  // Drops high zero coefficients.
  void Truncate();

 private:
  std::vector<Fr> coeffs_;  // coeffs_[i] multiplies X^i
};

}  // namespace zkml

#endif  // SRC_POLY_POLYNOMIAL_H_
