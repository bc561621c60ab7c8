#include "src/poly/polynomial.h"

#include <algorithm>

namespace zkml {

bool Poly::IsZero() const {
  for (const Fr& c : coeffs_) {
    if (!c.IsZero()) {
      return false;
    }
  }
  return true;
}

int Poly::Degree() const {
  for (size_t i = coeffs_.size(); i-- > 0;) {
    if (!coeffs_[i].IsZero()) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

Fr EvaluateCoeffs(const std::vector<Fr>& coeffs, const Fr& x) {
  Fr acc = Fr::Zero();
  for (size_t i = coeffs.size(); i-- > 0;) {
    acc = acc * x + coeffs[i];
  }
  return acc;
}

Fr Poly::Evaluate(const Fr& x) const { return EvaluateCoeffs(coeffs_, x); }

Poly Poly::operator+(const Poly& o) const {
  std::vector<Fr> out(std::max(coeffs_.size(), o.coeffs_.size()), Fr::Zero());
  for (size_t i = 0; i < coeffs_.size(); ++i) {
    out[i] += coeffs_[i];
  }
  for (size_t i = 0; i < o.coeffs_.size(); ++i) {
    out[i] += o.coeffs_[i];
  }
  return Poly(std::move(out));
}

Poly Poly::operator-(const Poly& o) const {
  std::vector<Fr> out(std::max(coeffs_.size(), o.coeffs_.size()), Fr::Zero());
  for (size_t i = 0; i < coeffs_.size(); ++i) {
    out[i] += coeffs_[i];
  }
  for (size_t i = 0; i < o.coeffs_.size(); ++i) {
    out[i] -= o.coeffs_[i];
  }
  return Poly(std::move(out));
}

Poly Poly::operator*(const Poly& o) const {
  if (coeffs_.empty() || o.coeffs_.empty()) {
    return Poly();
  }
  std::vector<Fr> out(coeffs_.size() + o.coeffs_.size() - 1, Fr::Zero());
  for (size_t i = 0; i < coeffs_.size(); ++i) {
    if (coeffs_[i].IsZero()) {
      continue;
    }
    for (size_t j = 0; j < o.coeffs_.size(); ++j) {
      out[i + j] += coeffs_[i] * o.coeffs_[j];
    }
  }
  return Poly(std::move(out));
}

Poly Poly::ScalarMul(const Fr& s) const {
  std::vector<Fr> out = coeffs_;
  for (Fr& c : out) {
    c *= s;
  }
  return Poly(std::move(out));
}

Poly Poly::DivideByLinear(const Fr& z, Fr* remainder) const {
  if (coeffs_.empty()) {
    if (remainder != nullptr) {
      *remainder = Fr::Zero();
    }
    return Poly();
  }
  std::vector<Fr> q(coeffs_.size() - 1, Fr::Zero());
  Fr carry = Fr::Zero();
  for (size_t i = coeffs_.size(); i-- > 0;) {
    Fr cur = coeffs_[i] + carry * z;
    if (i > 0) {
      q[i - 1] = cur;
    } else if (remainder != nullptr) {
      *remainder = cur;
    }
    carry = cur;
  }
  return Poly(std::move(q));
}

void Poly::Truncate() {
  while (!coeffs_.empty() && coeffs_.back().IsZero()) {
    coeffs_.pop_back();
  }
}

}  // namespace zkml
