#include "src/plonk/evaluator.h"

#include <algorithm>
#include <utility>

#include "src/base/check.h"
#include "src/ff/batch_mul.h"

namespace zkml {
namespace {

bool IsConstantValue(const ValueSource& s, const std::vector<Fr>& constants, const Fr& v) {
  return s.kind == ValueSource::Kind::kConstant && constants[s.index] == v;
}

}  // namespace

ValueSource GraphEvaluator::AddConstant(const Fr& c) {
  auto it = constant_index_.find(FrKey(c));
  if (it != constant_index_.end()) {
    return ValueSource{ValueSource::Kind::kConstant, it->second, 0};
  }
  const uint32_t idx = static_cast<uint32_t>(constants_.size());
  constants_.push_back(c);
  constant_index_.emplace(FrKey(c), idx);
  return ValueSource{ValueSource::Kind::kConstant, idx, 0};
}

uint32_t GraphEvaluator::AddRotation(int32_t rotation) {
  auto it = rotation_index_.find(rotation);
  if (it != rotation_index_.end()) {
    return it->second;
  }
  const uint32_t idx = static_cast<uint32_t>(rotations_.size());
  rotations_.push_back(rotation);
  rotation_index_.emplace(rotation, idx);
  return idx;
}

ValueSource GraphEvaluator::AddQuery(const ColumnQuery& q) {
  ValueSource s;
  switch (q.column.type) {
    case ColumnType::kFixed:
      s.kind = ValueSource::Kind::kFixed;
      break;
    case ColumnType::kAdvice:
      s.kind = ValueSource::Kind::kAdvice;
      break;
    case ColumnType::kInstance:
      s.kind = ValueSource::Kind::kInstance;
      break;
  }
  s.index = q.column.index;
  s.rotation = AddRotation(q.rotation);
  return s;
}

ValueSource GraphEvaluator::AddCalculation(Calculation calc) {
  auto it = calc_index_.find(calc);
  if (it != calc_index_.end()) {
    return ValueSource{ValueSource::Kind::kIntermediate, it->second, 0};
  }
  const uint32_t idx = static_cast<uint32_t>(calculations_.size());
  calculations_.push_back(calc);
  calc_index_.emplace(calc, idx);
  return ValueSource{ValueSource::Kind::kIntermediate, idx, 0};
}

ValueSource GraphEvaluator::AddExpression(const Expression& expr) {
  switch (expr.kind()) {
    case Expression::Kind::kConstant:
      return AddConstant(expr.constant());
    case Expression::Kind::kQuery:
      return AddQuery(expr.query());
    case Expression::Kind::kSum: {
      ValueSource a = AddExpression(expr.lhs());
      ValueSource b = AddExpression(expr.rhs());
      // x + 0 = x; addition commutes exactly, so canonicalizing the operand
      // order changes nothing but the CSE hit rate.
      if (IsConstantValue(a, constants_, Fr::Zero())) {
        return b;
      }
      if (IsConstantValue(b, constants_, Fr::Zero())) {
        return a;
      }
      if (b < a) {
        std::swap(a, b);
      }
      return AddCalculation(Calculation{Calculation::Op::kAdd, a, b});
    }
    case Expression::Kind::kProduct: {
      ValueSource a = AddExpression(expr.lhs());
      ValueSource b = AddExpression(expr.rhs());
      if (IsConstantValue(a, constants_, Fr::Zero()) ||
          IsConstantValue(b, constants_, Fr::Zero())) {
        return AddConstant(Fr::Zero());
      }
      if (IsConstantValue(a, constants_, Fr::One())) {
        return b;
      }
      if (IsConstantValue(b, constants_, Fr::One())) {
        return a;
      }
      if (b < a) {
        std::swap(a, b);
      }
      return AddCalculation(Calculation{Calculation::Op::kMul, a, b});
    }
    case Expression::Kind::kScaled: {
      ValueSource a = AddExpression(expr.lhs());
      const Fr& s = expr.constant();
      if (s.IsZero()) {
        return AddConstant(Fr::Zero());
      }
      if (s == Fr::One()) {
        return a;
      }
      if (IsConstantValue(a, constants_, Fr::Zero())) {
        return AddConstant(Fr::Zero());
      }
      return AddCalculation(Calculation{Calculation::Op::kScale, a, AddConstant(s)});
    }
  }
  ZKML_CHECK_MSG(false, "unreachable expression kind");
  return ValueSource{};
}

std::vector<size_t> GraphEvaluator::RotationOffsets(size_t size, size_t rot_scale) const {
  ZKML_CHECK_MSG(size > 0 && (size & (size - 1)) == 0, "table size must be a power of two");
  std::vector<size_t> offsets(rotations_.size());
  for (size_t i = 0; i < rotations_.size(); ++i) {
    int64_t off = static_cast<int64_t>(rotations_[i]) * static_cast<int64_t>(rot_scale);
    off %= static_cast<int64_t>(size);
    if (off < 0) {
      off += static_cast<int64_t>(size);
    }
    offsets[i] = static_cast<size_t>(off);
  }
  return offsets;
}

namespace {

// A source resolved to a raw pointer for one block of rows, so the per-row
// inner loop touches no std::vector indirection and no kind dispatch beyond a
// register-held mode tag.
struct Operand {
  enum class Mode : uint8_t {
    kBroadcast,  // *base for every row
    kRow,        // base[r] (block-scratch intermediate)
    kColumn,     // base[(start + r) mod size], start already reduced mod size
  };

  const Fr* base = nullptr;
  size_t start = 0;
  size_t size = 0;
  Mode mode = Mode::kBroadcast;

  inline const Fr& At(size_t r) const {
    switch (mode) {
      case Mode::kBroadcast:
        return *base;
      case Mode::kRow:
        return base[r];
      case Mode::kColumn:
      default: {
        size_t idx = start + r;
        if (idx >= size) {
          idx -= size;
        }
        return base[idx];
      }
    }
  }
};

Operand ResolveOperand(const ValueSource& s, const GraphEvaluator::Tables& t,
                       const std::vector<Fr>& constants, const size_t* rot_offsets, size_t j0,
                       size_t stride, const Fr* scratch) {
  Operand o;
  const std::vector<Fr>* column = nullptr;
  switch (s.kind) {
    case ValueSource::Kind::kConstant:
      o.base = &constants[s.index];
      o.mode = Operand::Mode::kBroadcast;
      return o;
    case ValueSource::Kind::kIntermediate:
      o.base = scratch + static_cast<size_t>(s.index) * stride;
      o.mode = Operand::Mode::kRow;
      return o;
    case ValueSource::Kind::kFixed:
      column = t.fixed[s.index];
      break;
    case ValueSource::Kind::kAdvice:
      column = t.advice[s.index];
      break;
    case ValueSource::Kind::kInstance:
      column = t.instance[s.index];
      break;
  }
  o.base = column->data();
  o.size = t.size;
  o.start = j0 + rot_offsets[s.rotation];
  if (o.start >= t.size) {
    o.start -= t.size;
  }
  o.mode = Operand::Mode::kColumn;
  return o;
}

// First row index in [0, cnt) at which a column operand wraps past the table
// end, or cnt when the whole block is contiguous (non-column operands always
// are). Blocks stay inside the domain, so there is at most one wrap.
inline size_t WrapBoundary(const Operand& o, size_t cnt) {
  if (o.mode != Operand::Mode::kColumn) {
    return cnt;
  }
  const size_t rem = o.size - o.start;
  return rem < cnt ? rem : cnt;
}

// Pointer to the operand's value at row r0, valid for a contiguous run up to
// the operand's next wrap boundary.
inline const Fr* SegPtr(const Operand& o, size_t r0) {
  if (o.mode == Operand::Mode::kRow) {
    return o.base + r0;
  }
  size_t idx = o.start + r0;
  if (idx >= o.size) {
    idx -= o.size;
  }
  return o.base + idx;
}

}  // namespace

void GraphEvaluator::EvaluateBlock(const Tables& t, const size_t* rot_offsets, size_t j0,
                                   size_t cnt, size_t stride, Fr* scratch) const {
  ZKML_DCHECK(cnt <= stride);
  // Rows stay inside the domain, so start + r wraps at most once per access.
  ZKML_DCHECK(j0 + cnt <= t.size);
  for (size_t c = 0; c < calculations_.size(); ++c) {
    const Calculation& k = calculations_[c];
    const Operand a = ResolveOperand(k.a, t, constants_, rot_offsets, j0, stride, scratch);
    const Operand b = ResolveOperand(k.b, t, constants_, rot_offsets, j0, stride, scratch);
    Fr* out = scratch + c * stride;
    // Both multiplication and addition run over contiguous pointer segments
    // (at most one wrap per column operand splits the block in two), so the
    // multiply segments feed the dispatched BatchMul kernels directly.
    const bool a_bc = a.mode == Operand::Mode::kBroadcast;
    const bool b_bc = b.mode == Operand::Mode::kBroadcast;
    switch (k.op) {
      case Calculation::Op::kAdd:
        if (a_bc && b_bc) {
          std::fill(out, out + cnt, *a.base + *b.base);
        } else if (a_bc || b_bc) {
          const Operand& vec = a_bc ? b : a;
          const Fr s = a_bc ? *a.base : *b.base;
          const size_t w = WrapBoundary(vec, cnt);
          const Fr* p = SegPtr(vec, 0);
          for (size_t r = 0; r < w; ++r) {
            out[r] = p[r] + s;
          }
          p = SegPtr(vec, w);
          for (size_t r = w; r < cnt; ++r) {
            out[r] = p[r - w] + s;
          }
        } else {
          size_t r = 0;
          const size_t wa = WrapBoundary(a, cnt);
          const size_t wb = WrapBoundary(b, cnt);
          while (r < cnt) {
            size_t end = cnt;
            if (r < wa && wa < end) {
              end = wa;
            }
            if (r < wb && wb < end) {
              end = wb;
            }
            const Fr* pa = SegPtr(a, r);
            const Fr* pb = SegPtr(b, r);
            for (size_t i = 0; i < end - r; ++i) {
              out[r + i] = pa[i] + pb[i];
            }
            r = end;
          }
        }
        break;
      case Calculation::Op::kMul:
      case Calculation::Op::kScale:
        if (a_bc && b_bc) {
          std::fill(out, out + cnt, *a.base * *b.base);
        } else if (a_bc || b_bc) {
          const Operand& vec = a_bc ? b : a;
          const Fr& s = a_bc ? *a.base : *b.base;
          const size_t w = WrapBoundary(vec, cnt);
          BatchMulScalar(out, SegPtr(vec, 0), s, w);
          if (w < cnt) {
            BatchMulScalar(out + w, SegPtr(vec, w), s, cnt - w);
          }
        } else {
          size_t r = 0;
          const size_t wa = WrapBoundary(a, cnt);
          const size_t wb = WrapBoundary(b, cnt);
          while (r < cnt) {
            size_t end = cnt;
            if (r < wa && wa < end) {
              end = wa;
            }
            if (r < wb && wb < end) {
              end = wb;
            }
            BatchMul(out + r, SegPtr(a, r), SegPtr(b, r), end - r);
            r = end;
          }
        }
        break;
    }
  }
}

const Fr* GraphEvaluator::BlockSeries(const ValueSource& s, const Tables& t,
                                      const size_t* rot_offsets, size_t j0, size_t cnt,
                                      size_t stride, const Fr* scratch, Fr* tmp) const {
  switch (s.kind) {
    case ValueSource::Kind::kConstant:
      std::fill(tmp, tmp + cnt, constants_[s.index]);
      return tmp;
    case ValueSource::Kind::kIntermediate:
      return scratch + static_cast<size_t>(s.index) * stride;
    case ValueSource::Kind::kFixed:
    case ValueSource::Kind::kAdvice:
    case ValueSource::Kind::kInstance:
    default: {
      const std::vector<Fr>* column = s.kind == ValueSource::Kind::kFixed ? t.fixed[s.index]
                                      : s.kind == ValueSource::Kind::kAdvice
                                          ? t.advice[s.index]
                                          : t.instance[s.index];
      size_t idx = j0 + rot_offsets[s.rotation];
      if (idx >= t.size) {
        idx -= t.size;
      }
      const size_t rem = t.size - idx;
      if (cnt <= rem) {
        return column->data() + idx;
      }
      std::copy(column->data() + idx, column->data() + t.size, tmp);
      std::copy(column->data(), column->data() + (cnt - rem), tmp + rem);
      return tmp;
    }
  }
}

}  // namespace zkml
