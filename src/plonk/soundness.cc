#include "src/plonk/soundness.h"

#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/base/thread_pool.h"

namespace zkml {
namespace {

std::string FrToHex(const Fr& v) {
  static const char* kDigits = "0123456789abcdef";
  const U256 c = v.ToCanonical();
  std::string out = "0x";
  for (int limb = 3; limb >= 0; --limb) {
    for (int nibble = 15; nibble >= 0; --nibble) {
      out.push_back(kDigits[(c.limbs[limb] >> (nibble * 4)) & 0xf]);
    }
  }
  return out;
}

}  // namespace

// --- Coverage. ---

CoverageReport AnalyzeCoverage(const ConstraintSystem& cs, const Assignment& assignment) {
  CoverageReport report;
  const size_t n = assignment.num_rows();

  auto resolve_at = [&](const ColumnQuery& q, size_t row) -> Fr {
    return assignment.Get(q.column, RotateRow(row, q.rotation, n));
  };

  for (const Gate& gate : cs.gates()) {
    std::set<ColumnQuery> queries;
    gate.poly.CollectQueries(&queries);
    std::vector<ColumnQuery> fixed_queries;
    for (const ColumnQuery& q : queries) {
      if (q.column.type == ColumnType::kFixed) {
        fixed_queries.push_back(q);
      }
    }
    GateCoverage gc;
    gc.name = gate.name;
    if (fixed_queries.empty()) {
      // No selector: the polynomial binds the witness on every row.
      gc.active_rows = n;
    } else {
      for (size_t row = 0; row < n; ++row) {
        for (const ColumnQuery& q : fixed_queries) {
          if (!resolve_at(q, row).IsZero()) {
            ++gc.active_rows;
            break;
          }
        }
      }
    }
    if (gc.active_rows == 0) {
      ++report.dead_gates;
    }
    report.gates.push_back(std::move(gc));
  }

  for (const LookupArgument& lk : cs.lookups()) {
    LookupCoverage lc;
    lc.name = lk.name;

    lc.table_tuples = LookupTableKeys(lk, assignment).size();

    // Activity mirrors the gate rule: a row is active when any fixed column
    // queried by the input expressions (the selector) is nonzero there. A
    // selector-enabled row genuinely checks its tuple — even the all-zero
    // tuple a neutral filler slot produces — so it must not count as dead.
    std::set<ColumnQuery> queries;
    for (const Expression& e : lk.inputs) {
      e.CollectQueries(&queries);
    }
    std::vector<ColumnQuery> fixed_queries;
    for (const ColumnQuery& q : queries) {
      if (q.column.type == ColumnType::kFixed) {
        fixed_queries.push_back(q);
      }
    }
    std::unordered_set<std::string> referenced;
    std::vector<Fr> input(lk.inputs.size());
    for (size_t row = 0; row < n; ++row) {
      bool active = fixed_queries.empty();
      for (const ColumnQuery& q : fixed_queries) {
        if (!resolve_at(q, row).IsZero()) {
          active = true;
          break;
        }
      }
      if (active) {
        ++lc.active_rows;
        for (size_t j = 0; j < lk.inputs.size(); ++j) {
          input[j] =
              lk.inputs[j].Evaluate([&](const ColumnQuery& q) { return resolve_at(q, row); });
        }
        referenced.insert(LookupTupleKey(input));
      }
    }
    lc.referenced_tuples = referenced.size();
    if (lc.active_rows == 0) {
      ++report.dead_lookups;
    }
    report.lookups.push_back(std::move(lc));
  }

  return report;
}

obs::Json CoverageReport::ToJson() const {
  obs::Json j = obs::Json::Object();
  obs::Json gate_arr = obs::Json::Array();
  for (const GateCoverage& g : gates) {
    obs::Json e = obs::Json::Object();
    e.Set("name", g.name);
    e.Set("active_rows", g.active_rows);
    gate_arr.Append(std::move(e));
  }
  j.Set("gates", std::move(gate_arr));
  obs::Json lk_arr = obs::Json::Array();
  for (const LookupCoverage& l : lookups) {
    obs::Json e = obs::Json::Object();
    e.Set("name", l.name);
    e.Set("active_rows", l.active_rows);
    e.Set("table_tuples", l.table_tuples);
    e.Set("referenced_tuples", l.referenced_tuples);
    lk_arr.Append(std::move(e));
  }
  j.Set("lookups", std::move(lk_arr));
  j.Set("dead_gates", dead_gates);
  j.Set("dead_lookups", dead_lookups);
  return j;
}

// --- Mutation fuzzing. ---

namespace {

// Per-advice-column index of everything that can reject a mutation there:
// which gates/lookup arguments query the column (and at what rotation), and
// which cells each cell is copy-linked to.
struct ConstraintIndex {
  // advice column index -> (gate index, rotation) pairs.
  std::vector<std::vector<std::pair<size_t, int32_t>>> gates_by_column;
  // advice column index -> (lookup index, rotation) pairs.
  std::vector<std::vector<std::pair<size_t, int32_t>>> lookups_by_column;
  // Precomputed tuple-key sets, one per lookup argument.
  std::vector<std::unordered_set<std::string>> lookup_tables;
  // (advice column index, row) -> copy-linked counterpart cells.
  std::map<std::pair<uint32_t, uint32_t>, std::vector<Cell>> copies;
};

ConstraintIndex BuildIndex(const ConstraintSystem& cs, const Assignment& assignment) {
  ConstraintIndex index;
  index.gates_by_column.resize(cs.num_advice_columns());
  index.lookups_by_column.resize(cs.num_advice_columns());

  for (size_t g = 0; g < cs.gates().size(); ++g) {
    std::set<ColumnQuery> queries;
    cs.gates()[g].poly.CollectQueries(&queries);
    for (const ColumnQuery& q : queries) {
      if (q.column.type == ColumnType::kAdvice) {
        index.gates_by_column[q.column.index].emplace_back(g, q.rotation);
      }
    }
  }

  index.lookup_tables.resize(cs.lookups().size());
  for (size_t l = 0; l < cs.lookups().size(); ++l) {
    const LookupArgument& lk = cs.lookups()[l];
    std::set<ColumnQuery> queries;
    for (const Expression& e : lk.inputs) {
      e.CollectQueries(&queries);
    }
    for (const ColumnQuery& q : queries) {
      if (q.column.type == ColumnType::kAdvice) {
        index.lookups_by_column[q.column.index].emplace_back(l, q.rotation);
      }
    }
    index.lookup_tables[l] = LookupTableKeys(lk, assignment);
  }

  for (const auto& [a, b] : assignment.copies()) {
    if (a.column.type == ColumnType::kAdvice) {
      index.copies[{a.column.index, a.row}].push_back(b);
    }
    if (b.column.type == ColumnType::kAdvice) {
      index.copies[{b.column.index, b.row}].push_back(a);
    }
  }
  return index;
}

// True when some constraint referencing advice cell (col, row) rejects the
// substituted value. Exact (not heuristic): the index enumerates every gate,
// lookup, and copy that can observe the cell, and the base assignment is
// satisfied, so a mutation is undetected here iff a full MockProver pass
// would also accept it.
bool MutantDetected(const ConstraintSystem& cs, const Assignment& assignment,
                    const ConstraintIndex& index, uint32_t col, uint32_t row, const Fr& value) {
  const size_t n = assignment.num_rows();

  auto resolve_at = [&](const ColumnQuery& q, size_t base) -> Fr {
    const size_t r = RotateRow(base, q.rotation, n);
    if (q.column.type == ColumnType::kAdvice && q.column.index == col && r == row) {
      return value;
    }
    return assignment.Get(q.column, r);
  };

  for (const auto& [g, rot] : index.gates_by_column[col]) {
    const size_t base = RotateRow(row, -rot, n);
    const Fr v =
        cs.gates()[g].poly.Evaluate([&](const ColumnQuery& q) { return resolve_at(q, base); });
    if (!v.IsZero()) {
      return true;
    }
  }

  for (const auto& [l, rot] : index.lookups_by_column[col]) {
    const LookupArgument& lk = cs.lookups()[l];
    const size_t base = RotateRow(row, -rot, n);
    std::vector<Fr> input(lk.inputs.size());
    for (size_t j = 0; j < lk.inputs.size(); ++j) {
      input[j] = lk.inputs[j].Evaluate([&](const ColumnQuery& q) { return resolve_at(q, base); });
    }
    if (index.lookup_tables[l].find(LookupTupleKey(input)) == index.lookup_tables[l].end()) {
      return true;
    }
  }

  const auto it = index.copies.find({col, row});
  if (it != index.copies.end()) {
    const Cell self{Column{ColumnType::kAdvice, col}, row};
    for (const Cell& other : it->second) {
      if (other == self) {
        continue;
      }
      if (!(assignment.Get(other.column, other.row) == value)) {
        return true;
      }
    }
  }
  return false;
}

struct Mutation {
  const char* label;
  Fr value;
};

// Deterministic per-(seed, cell) mutation sequence. Classes cycle through
// small +/- offsets (probe range-check band edges), negation (sign holes),
// and wide random field elements (catch constraints that only hold on a
// low-dimensional variety by accident).
std::vector<Mutation> MakeMutations(const Fr& original, uint64_t seed, uint64_t cell_index,
                                    int count) {
  Rng rng(seed, cell_index);
  std::vector<Mutation> out;
  out.reserve(static_cast<size_t>(count));
  for (int m = 0; m < count; ++m) {
    const Fr delta = Fr::FromU64(1 + rng.NextBelow(7));
    switch (m % 4) {
      case 0:
        out.push_back({"plus-delta", original + delta});
        break;
      case 1:
        out.push_back({"minus-delta", original - delta});
        break;
      case 2:
        out.push_back({"negate", original.IsZero() ? delta : original.Neg()});
        break;
      default: {
        Fr r = Fr::Random(rng);
        if (r == original) {
          r += Fr::One();
        }
        out.push_back({"random", r});
        break;
      }
    }
  }
  return out;
}

}  // namespace

MutationReport FuzzWitness(const ConstraintSystem& cs, const Assignment& assignment,
                           const FuzzOptions& options) {
  MutationReport report;
  report.seed = options.seed;
  report.mutations_per_cell = options.mutations_per_cell;

  const size_t n = assignment.num_rows();
  const size_t num_cols = cs.num_advice_columns();
  report.cells_total = static_cast<uint64_t>(num_cols) * n;

  const ConstraintIndex index = BuildIndex(cs, assignment);

  std::atomic<uint64_t> cells_fuzzed{0};
  std::atomic<uint64_t> cells_unassigned{0};
  std::atomic<uint64_t> cells_free{0};
  std::atomic<uint64_t> tried{0};
  std::atomic<uint64_t> detected{0};
  std::atomic<uint64_t> surviving{0};
  std::mutex survivors_mu;

  ParallelFor(0, report.cells_total, [&](size_t begin, size_t end) {
    for (size_t cell = begin; cell < end; ++cell) {
      const uint32_t col = static_cast<uint32_t>(cell / n);
      const uint32_t row = static_cast<uint32_t>(cell % n);
      const AdviceTag tag = assignment.advice_tag(col, row);
      if (tag == AdviceTag::kUnassigned) {
        cells_unassigned.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (tag == AdviceTag::kFreeWitness) {
        cells_free.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      cells_fuzzed.fetch_add(1, std::memory_order_relaxed);
      const Fr original = assignment.advice()[col][row];
      for (const Mutation& mut :
           MakeMutations(original, options.seed, cell, options.mutations_per_cell)) {
        tried.fetch_add(1, std::memory_order_relaxed);
        if (MutantDetected(cs, assignment, index, col, row, mut.value)) {
          detected.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // Confirm with a full MockProver pass so a localization bug can never
        // fabricate a survivor. Survivors are rare (zero on a sound circuit),
        // so the assignment copy is affordable.
        Assignment mutated = assignment;
        mutated.SetAdvice(Column{ColumnType::kAdvice, col}, row, mut.value);
        if (!MockProver(&cs, &mutated).IsSatisfied()) {
          detected.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        surviving.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(survivors_mu);
        if (report.survivors.size() < options.max_survivors) {
          SurvivingMutant s;
          s.column_index = col;
          s.row = row;
          s.mutation = mut.label;
          s.value = mut.value;
          s.description = "advice[" + std::to_string(col) + "][" + std::to_string(row) +
                          "] is under-constrained: '" + mut.label + "' mutant " +
                          FrToHex(mut.value) +
                          " passes every gate, lookup, and copy constraint";
          report.survivors.push_back(std::move(s));
        }
      }
    }
  });

  report.cells_fuzzed = cells_fuzzed.load();
  report.cells_unassigned = cells_unassigned.load();
  report.cells_free_witness = cells_free.load();
  report.mutants_tried = tried.load();
  report.mutants_detected = detected.load();
  report.surviving_mutants = surviving.load();
  return report;
}

obs::Json MutationReport::ToJson() const {
  obs::Json j = obs::Json::Object();
  j.Set("seed", seed);
  j.Set("mutations_per_cell", static_cast<int64_t>(mutations_per_cell));
  j.Set("cells_total", cells_total);
  j.Set("cells_fuzzed", cells_fuzzed);
  j.Set("cells_unassigned", cells_unassigned);
  j.Set("cells_free_witness", cells_free_witness);
  j.Set("mutants_tried", mutants_tried);
  j.Set("mutants_detected", mutants_detected);
  j.Set("surviving_mutants", surviving_mutants);
  obs::Json arr = obs::Json::Array();
  for (const SurvivingMutant& s : survivors) {
    obs::Json e = obs::Json::Object();
    e.Set("column", static_cast<uint64_t>(s.column_index));
    e.Set("row", static_cast<uint64_t>(s.row));
    e.Set("mutation", s.mutation);
    e.Set("value", FrToHex(s.value));
    e.Set("description", s.description);
    arr.Append(std::move(e));
  }
  j.Set("survivors", std::move(arr));
  return j;
}

obs::Json SoundnessReportJson(const CoverageReport& coverage, const MutationReport& mutation,
                              const obs::Json& forgery) {
  obs::Json j = obs::Json::Object();
  j.Set("schema", "zkml.soundness/v1");
  j.Set("coverage", coverage.ToJson());
  j.Set("mutation", mutation.ToJson());
  if (!forgery.is_null()) {
    j.Set("forgery", forgery);
  }
  j.Set("sound", coverage.dead_gates == 0 && coverage.dead_lookups == 0 &&
                     mutation.surviving_mutants == 0);
  return j;
}

}  // namespace zkml
