// Compiles constraint Expression ASTs into flat calculation plans, in the
// style of halo2's GraphEvaluator. The legacy hot path re-walked the AST for
// every row of the extended coset (virtual dispatch + a freshly allocated
// ext_n-sized vector per AST node); a compiled plan is a short array of
// (op, operand, operand) triples executed over a tiny per-thread scratch
// buffer, with common subexpressions, repeated constants, and repeated
// (column, rotation) queries all deduplicated at compile time.
//
// The plan computes exactly the same field values as Expression::Evaluate —
// compilation only reassociates *storage*, never arithmetic — so swapping it
// into the prover leaves proof bytes unchanged.
#ifndef SRC_PLONK_EVALUATOR_H_
#define SRC_PLONK_EVALUATOR_H_

#include <cstdint>
#include <map>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/ff/fields.h"
#include "src/ff/fr_key.h"
#include "src/plonk/expression.h"

namespace zkml {

// Where one operand of a compiled calculation comes from at evaluation time.
struct ValueSource {
  enum class Kind : uint8_t {
    kConstant,      // constants()[index]
    kIntermediate,  // scratch[index], the output of calculation `index`
    kFixed,         // fixed table `index` at rotation slot `rotation`
    kAdvice,        // advice table `index` at rotation slot `rotation`
    kInstance,      // instance table `index` at rotation slot `rotation`
  };

  Kind kind = Kind::kConstant;
  uint32_t index = 0;
  uint32_t rotation = 0;  // index into rotations(); unused for non-columns

  friend bool operator==(const ValueSource& a, const ValueSource& b) {
    return a.kind == b.kind && a.index == b.index && a.rotation == b.rotation;
  }
  friend bool operator<(const ValueSource& a, const ValueSource& b) {
    return std::tie(a.kind, a.index, a.rotation) < std::tie(b.kind, b.index, b.rotation);
  }
};

// One step of a calculation plan. kScale is a multiply whose right operand is
// known at compile time to be a constant; it exists only to keep plans
// readable in debug dumps — the arithmetic is identical to kMul.
struct Calculation {
  enum class Op : uint8_t { kAdd, kMul, kScale };

  Op op = Op::kAdd;
  ValueSource a;
  ValueSource b;

  friend bool operator<(const Calculation& x, const Calculation& y) {
    return std::tie(x.op, x.a, x.b) < std::tie(y.op, y.a, y.b);
  }
};

class GraphEvaluator {
 public:
  // Column tables the plan reads at evaluation time, all in evaluation form
  // over the same (extended) domain of `size` rows. `rot_scale` is the row
  // offset corresponding to one unit of rotation (the extension factor when
  // evaluating over the extended coset, 1 over the base domain).
  struct Tables {
    const std::vector<Fr>* const* fixed = nullptr;
    const std::vector<Fr>* const* advice = nullptr;
    const std::vector<Fr>* const* instance = nullptr;
    size_t size = 0;  // power of two
  };

  // Flattens `expr` into the plan, deduplicating against every expression
  // already added, and returns the source holding its value at run time.
  // Sources returned by earlier AddExpression calls stay valid: plans only
  // grow.
  ValueSource AddExpression(const Expression& expr);

  // Registers a constant / rotation explicitly (used by callers that combine
  // plan outputs with hand-written arithmetic needing the same tables).
  ValueSource AddConstant(const Fr& c);
  uint32_t AddRotation(int32_t rotation);

  // Wrapped row offsets, one per rotations() entry, for a domain of `size`
  // rows with `rot_scale` rows per unit rotation. Row access for rotation
  // slot r at row j is then (j + offsets[r]) mod size, a single conditional
  // subtract.
  std::vector<size_t> RotationOffsets(size_t size, size_t rot_scale) const;

  // Evaluates rows [j0, j0 + cnt), laying scratch out calculation-major
  // (value of calculation c at row j0+r lives at scratch[c * stride + r];
  // stride >= cnt). Operand sources are resolved to raw pointers once per
  // calculation per block instead of once per row. `rot_offsets` must come
  // from RotationOffsets for the same table size. Row j0+r's values are
  // those Expression::Evaluate computes at that row.
  void EvaluateBlock(const Tables& t, const size_t* rot_offsets, size_t j0, size_t cnt,
                     size_t stride, Fr* scratch) const;

  // Contiguous view of source `s` over rows [j0, j0 + cnt) after EvaluateBlock
  // filled `scratch`. Returns a pointer into the scratch/column storage when
  // the rows are naturally contiguous; otherwise (a constant, or a column
  // window wrapping the domain end) materializes them into `tmp` (at least
  // cnt entries) and returns tmp.
  const Fr* BlockSeries(const ValueSource& s, const Tables& t, const size_t* rot_offsets,
                        size_t j0, size_t cnt, size_t stride, const Fr* scratch, Fr* tmp) const;

  size_t num_intermediates() const { return calculations_.size(); }
  const std::vector<Calculation>& calculations() const { return calculations_; }
  const std::vector<Fr>& constants() const { return constants_; }
  const std::vector<int32_t>& rotations() const { return rotations_; }

 private:
  ValueSource AddCalculation(Calculation calc);
  ValueSource AddQuery(const ColumnQuery& q);

  std::vector<Calculation> calculations_;
  std::vector<Fr> constants_;
  std::vector<int32_t> rotations_;

  // Compile-time dedup indexes.
  std::map<Calculation, uint32_t> calc_index_;
  std::unordered_map<FrKey, uint32_t, FrKeyHash> constant_index_;
  std::map<int32_t, uint32_t> rotation_index_;
};

}  // namespace zkml

#endif  // SRC_PLONK_EVALUATOR_H_
