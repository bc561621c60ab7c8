#include "src/plonk/mock_prover.h"

#include <string>

#include "src/transcript/sha256.h"

namespace zkml {

std::string LookupTupleKey(const std::vector<Fr>& values) {
  std::string key;
  key.reserve(values.size() * 32);
  for (const Fr& v : values) {
    const U256 c = v.ToCanonical();
    key.append(reinterpret_cast<const char*>(c.limbs), sizeof(c.limbs));
  }
  return key;
}

std::unordered_set<std::string> LookupTableKeys(const LookupArgument& lk, const Assignment& asn) {
  std::unordered_set<std::string> keys;
  keys.reserve(asn.num_rows());
  std::vector<Fr> tuple(lk.table.size());
  for (size_t row = 0; row < asn.num_rows(); ++row) {
    for (size_t j = 0; j < lk.table.size(); ++j) {
      tuple[j] = asn.Get(lk.table[j], row);
    }
    keys.insert(LookupTupleKey(tuple));
  }
  return keys;
}

std::vector<ConstraintFailure> MockProver::Verify(size_t max_failures) const {
  std::vector<ConstraintFailure> failures;
  const size_t n = assignment_->num_rows();

  auto resolve_at = [&](const ColumnQuery& q, size_t row) -> Fr {
    return assignment_->Get(q.column, RotateRow(row, q.rotation, n));
  };

  // Gates.
  for (size_t g = 0; g < cs_->gates().size(); ++g) {
    const Gate& gate = cs_->gates()[g];
    for (size_t row = 0; row < n && failures.size() < max_failures; ++row) {
      const Fr v = gate.poly.Evaluate(
          [&](const ColumnQuery& q) { return resolve_at(q, row); });
      if (!v.IsZero()) {
        ConstraintFailure f;
        f.description = "gate '" + gate.name + "' not satisfied at row " + std::to_string(row);
        f.kind = ConstraintKind::kGate;
        f.constraint_index = static_cast<int>(g);
        f.row = static_cast<int64_t>(row);
        failures.push_back(std::move(f));
      }
    }
    if (failures.size() >= max_failures) {
      return failures;
    }
  }

  // Lookups.
  for (size_t l = 0; l < cs_->lookups().size(); ++l) {
    const LookupArgument& lk = cs_->lookups()[l];
    const std::unordered_set<std::string> table = LookupTableKeys(lk, *assignment_);
    std::vector<Fr> input(lk.inputs.size());
    for (size_t row = 0; row < n && failures.size() < max_failures; ++row) {
      for (size_t j = 0; j < lk.inputs.size(); ++j) {
        input[j] = lk.inputs[j].Evaluate(
            [&](const ColumnQuery& q) { return resolve_at(q, row); });
      }
      if (table.find(LookupTupleKey(input)) == table.end()) {
        ConstraintFailure f;
        f.description =
            "lookup '" + lk.name + "' (argument " + std::to_string(l) +
            ") input not in table at row " + std::to_string(row);
        f.kind = ConstraintKind::kLookup;
        f.constraint_index = static_cast<int>(l);
        f.row = static_cast<int64_t>(row);
        if (!lk.table.empty()) {
          f.table_column_index = 0;
          f.table_column = lk.table[0];
        }
        failures.push_back(std::move(f));
      }
    }
    if (failures.size() >= max_failures) {
      return failures;
    }
  }

  // Copy constraints.
  for (const auto& [a, b] : assignment_->copies()) {
    if (failures.size() >= max_failures) {
      return failures;
    }
    ConstraintFailure f;
    f.kind = ConstraintKind::kCopy;
    f.row_a = a.row;
    f.row_b = b.row;
    if (!cs_->IsEqualityEnabled(a.column) || !cs_->IsEqualityEnabled(b.column)) {
      f.description = "copy constraint touches a non-equality column";
      failures.push_back(std::move(f));
      continue;
    }
    if (!(assignment_->Get(a.column, a.row) == assignment_->Get(b.column, b.row))) {
      f.description = "copy constraint violated between rows " + std::to_string(a.row) +
                      " and " + std::to_string(b.row);
      failures.push_back(std::move(f));
    }
  }
  return failures;
}

}  // namespace zkml
