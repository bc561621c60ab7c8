// Column taxonomy of the Plonkish grid (paper §3, Table 1):
//   instance — public values (model inputs/outputs),
//   advice   — private witness (weights, activations),
//   fixed    — preprocessed circuit constants: selectors, lookup tables.
#ifndef SRC_PLONK_COLUMN_H_
#define SRC_PLONK_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <functional>

namespace zkml {

enum class ColumnType : uint8_t { kInstance = 0, kAdvice = 1, kFixed = 2 };

struct Column {
  ColumnType type = ColumnType::kAdvice;
  uint32_t index = 0;

  bool operator==(const Column& o) const { return type == o.type && index == o.index; }
  bool operator<(const Column& o) const {
    if (type != o.type) {
      return static_cast<int>(type) < static_cast<int>(o.type);
    }
    return index < o.index;
  }
};

struct Cell {
  Column column;
  uint32_t row = 0;

  bool operator==(const Cell& o) const { return column == o.column && row == o.row; }
  bool operator<(const Cell& o) const {
    if (!(column == o.column)) {
      return column < o.column;
    }
    return row < o.row;
  }
};

// A query of a column at a row offset relative to the current row. Gadget
// gates in ZKML are single-row (rotation 0); the permutation and lookup
// arguments use rotation +1 internally.
struct ColumnQuery {
  Column column;
  int32_t rotation = 0;

  bool operator==(const ColumnQuery& o) const {
    return column == o.column && rotation == o.rotation;
  }
  bool operator<(const ColumnQuery& o) const {
    if (!(column == o.column)) {
      return column < o.column;
    }
    return rotation < o.rotation;
  }
};

// Row `row + rotation` of an n-row grid, wrapping around.
inline size_t RotateRow(size_t row, int64_t rotation, size_t n) {
  const int64_t m = static_cast<int64_t>(n);
  return static_cast<size_t>(((static_cast<int64_t>(row) + rotation) % m + m) % m);
}

}  // namespace zkml

#endif  // SRC_PLONK_COLUMN_H_
