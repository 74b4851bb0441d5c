// Columnar batches for the vectorized execution path.
//
// A RowBatch carries up to BatchCapacity() rows (default 1024, overridable
// with RFID_BATCH_SIZE) as one ColumnVector per output field. A
// ColumnVector stores a DataType tag per entry — kNull doubles as the null
// bitmap — plus a raw int64 payload lane (BOOL/INT64/TIMESTAMP/INTERVAL
// directly, DOUBLE via bit_cast) and a lazily-materialized string lane.
// Tags are per-entry rather than per-column because the engine's
// expressions are weakly typed at runtime (CASE/COALESCE branches may mix
// INT64 and DOUBLE), and bit-identical output with the row interpreter is
// non-negotiable.
//
// The Entry* helpers mirror Value::Compare / Value::Hash /
// Value::DistinctEquals exactly so hash-join probes and aggregations can
// work on column entries without boxing a Value per row.
#ifndef RFID_EXPR_ROW_BATCH_H_
#define RFID_EXPR_ROW_BATCH_H_

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"

namespace rfid {

using Row = std::vector<Value>;

class ColumnVector {
 public:
  size_t size() const { return tags_.size(); }

  /// Drops all entries but keeps capacity for reuse across batches.
  void Clear() {
    tags_.clear();
    data_.clear();
    strs_.clear();
  }

  /// Resizes to n all-null entries with undefined payloads. Kernels that
  /// write positionally call this first, then Set* only the selected
  /// positions; unselected positions stay null and are never read.
  void Reset(size_t n) {
    tags_.assign(n, static_cast<uint8_t>(DataType::kNull));
    data_.resize(n);
    if (!strs_.empty()) strs_.resize(n);
  }

  DataType tag(size_t i) const { return static_cast<DataType>(tags_[i]); }
  bool is_null(size_t i) const {
    return tags_[i] == static_cast<uint8_t>(DataType::kNull);
  }
  int64_t raw(size_t i) const { return data_[i]; }
  double dbl(size_t i) const { return std::bit_cast<double>(data_[i]); }
  const std::string& str(size_t i) const { return strs_[i]; }

  /// Numeric view of an INT64/DOUBLE entry; mirrors Value::AsDouble.
  double AsDouble(size_t i) const {
    return tag(i) == DataType::kDouble ? dbl(i)
                                       : static_cast<double>(data_[i]);
  }

  void SetNull(size_t i) { tags_[i] = static_cast<uint8_t>(DataType::kNull); }
  void SetRaw(size_t i, DataType t, int64_t v) {
    tags_[i] = static_cast<uint8_t>(t);
    data_[i] = v;
  }
  void SetBool(size_t i, bool v) { SetRaw(i, DataType::kBool, v ? 1 : 0); }
  void SetDouble(size_t i, double v) {
    tags_[i] = static_cast<uint8_t>(DataType::kDouble);
    data_[i] = std::bit_cast<int64_t>(v);
  }
  void SetString(size_t i, std::string v) {
    EnsureStrs();
    tags_[i] = static_cast<uint8_t>(DataType::kString);
    data_[i] = 0;  // keep the payload lane deterministic for string entries
    strs_[i] = std::move(v);
  }
  void SetValue(size_t i, const Value& v);

  void AppendNull() {
    tags_.push_back(static_cast<uint8_t>(DataType::kNull));
    data_.push_back(0);
    if (!strs_.empty()) strs_.emplace_back();
  }
  void AppendRaw(DataType t, int64_t v) {
    tags_.push_back(static_cast<uint8_t>(t));
    data_.push_back(v);
    if (!strs_.empty()) strs_.emplace_back();
  }
  void AppendDouble(double v) {
    AppendRaw(DataType::kDouble, std::bit_cast<int64_t>(v));
  }
  void AppendString(std::string v) {
    EnsureStrs();
    tags_.push_back(static_cast<uint8_t>(DataType::kString));
    data_.push_back(0);
    strs_.push_back(std::move(v));
  }
  void AppendValue(const Value& v);
  /// Moves the string payload out of `v` when it holds one.
  void AppendValue(Value&& v);
  void AppendFrom(const ColumnVector& src, size_t i);

  /// Boxes entry i back into a Value (copies string payloads; the column
  /// stays intact for reuse).
  Value ValueAt(size_t i) const;

  /// Boxes entry i, surrendering the string payload (the entry keeps its
  /// tag but its string becomes unspecified). Only valid when the batch
  /// is drained front-to-back and cleared before reuse.
  Value MoveValueAt(size_t i);

  uint64_t ApproxBytes() const;

 private:
  void EnsureStrs() {
    if (strs_.empty() && !tags_.empty()) strs_.resize(tags_.size());
    if (strs_.size() < tags_.size()) strs_.resize(tags_.size());
  }

  std::vector<uint8_t> tags_;
  std::vector<int64_t> data_;
  std::vector<std::string> strs_;  // sized only once a string appears
};

/// Three-way comparison of two non-null entries; mirrors Value::Compare
/// (string compare; double path when either side is DOUBLE; int64
/// otherwise). Callers guarantee comparability, as with Value::Compare.
int CompareEntries(const ColumnVector& a, size_t ai, const ColumnVector& b,
                   size_t bi);
int CompareEntryToValue(const ColumnVector& a, size_t ai, const Value& v);

/// Mirrors Value::Hash bit-for-bit (including the integral-double trick)
/// so column entries and boxed Values land in the same hash bucket.
size_t EntryHash(const ColumnVector& a, size_t i);

/// Mirrors Value::DistinctEquals (NULLs equal each other).
bool EntryEqualsValue(const ColumnVector& a, size_t i, const Value& v);

class RowBatch {
 public:
  RowBatch() : RowBatch(0) {}
  explicit RowBatch(size_t num_columns, size_t capacity = 0);

  size_t num_columns() const { return cols_.size(); }
  size_t num_rows() const { return rows_; }
  size_t capacity() const { return capacity_; }
  bool empty() const { return rows_ == 0; }
  bool full() const { return rows_ >= capacity_; }

  ColumnVector& col(size_t i) { return cols_[i]; }
  const ColumnVector& col(size_t i) const { return cols_[i]; }

  /// Drops all rows, keeps the column layout and buffer capacity.
  void Clear();
  /// Changes the column count and drops all rows.
  void ResetColumns(size_t num_columns);

  void AppendRow(const Row& row);
  void AppendRow(Row&& row);
  /// Appends row i of src (same column layout).
  void AppendGathered(const RowBatch& src, size_t i);
  /// Boxes row i into *out (replaces its contents).
  void EmitRow(size_t i, Row* out) const;
  /// Boxes row i into *out, moving string payloads out of the batch. Use
  /// when every row is consumed exactly once before the batch is cleared.
  void MoveRowInto(size_t i, Row* out);

  /// Installs a fully-built column (e.g. a projection kernel's output).
  /// All installed columns must have matching sizes; the caller then sets
  /// the row count with set_num_rows.
  void TakeColumn(size_t i, ColumnVector&& c) { cols_[i] = std::move(c); }
  void set_num_rows(size_t n) { rows_ = n; }

  uint64_t ApproxBytes() const;

 private:
  std::vector<ColumnVector> cols_;
  size_t rows_ = 0;
  size_t capacity_;
};

/// Batch capacity: RFID_BATCH_SIZE env override, default 1024, clamped to
/// [1, 65536]. SetBatchCapacityForTest(0) restores the env/default value.
size_t BatchCapacity();
void SetBatchCapacityForTest(size_t n);

/// Whether operators should run their batch-native paths. Compiled out
/// entirely by RFID_VECTORIZED=OFF; otherwise the
/// RFID_VECTORIZED env var (0/off/false disables) with a test override.
/// SetVectorizedForTest: -1 restores the env default, 0 forces off, 1 on.
bool VectorizedEnabled();
void SetVectorizedForTest(int mode);

}  // namespace rfid

#endif  // RFID_EXPR_ROW_BATCH_H_
