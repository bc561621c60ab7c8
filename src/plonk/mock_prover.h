// Row-exact constraint checker (the analogue of halo2's MockProver): verifies
// every gate, lookup, and copy constraint directly on the assigned grid, with
// human-readable failure reports. Tests and the physical-layout validator use
// this instead of producing real proofs.
#ifndef SRC_PLONK_MOCK_PROVER_H_
#define SRC_PLONK_MOCK_PROVER_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "src/plonk/assignment.h"
#include "src/plonk/constraint_system.h"

namespace zkml {

enum class ConstraintKind { kGate, kLookup, kCopy };

// One violated constraint, with machine-readable blame so gadget authors can
// localize the failure without parsing the description string.
struct ConstraintFailure {
  std::string description;
  ConstraintKind kind = ConstraintKind::kGate;
  // kGate: index into cs.gates(); kLookup: index into cs.lookups() (the
  // argument index); -1 otherwise.
  int constraint_index = -1;
  // First row at which this constraint fails (-1 for copy-constraint
  // failures, which are row pairs — see `row_a`/`row_b`).
  int64_t row = -1;
  // kLookup only: index (within the argument's table vector) of the first
  // table column, and the table column itself, so reports can name the table.
  int table_column_index = -1;
  Column table_column;
  // kCopy only: the two rows of the violated copy.
  int64_t row_a = -1;
  int64_t row_b = -1;
};

// Canonical byte key of a tuple of field elements: a lookup input is in its
// table iff its key is in the table's key set.
std::string LookupTupleKey(const std::vector<Fr>& values);

// The key set of the table tuples lookup `lk` offers, one per assigned row.
std::unordered_set<std::string> LookupTableKeys(const LookupArgument& lk, const Assignment& asn);

class MockProver {
 public:
  // Pass to Verify for an uncapped report: the soundness fuzzer needs the
  // complete blame list to dedupe under-constrained cells, whereas human
  // reports keep the default cap for readability.
  static constexpr size_t kAllFailures = static_cast<size_t>(-1);

  MockProver(const ConstraintSystem* cs, const Assignment* assignment)
      : cs_(cs), assignment_(assignment) {}

  // Returns failures (empty means the assignment satisfies the circuit).
  // Stops after `max_failures` to keep reports readable; pass `kAllFailures`
  // to exhaustively report every violated constraint.
  std::vector<ConstraintFailure> Verify(size_t max_failures = 16) const;

  // Early-exit fast path: stops at the first violation.
  bool IsSatisfied() const { return Verify(1).empty(); }

 private:
  const ConstraintSystem* cs_;
  const Assignment* assignment_;
};

}  // namespace zkml

#endif  // SRC_PLONK_MOCK_PROVER_H_
