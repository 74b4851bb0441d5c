#include "expr/row_batch.h"

#include <algorithm>
#include <atomic>
#include <functional>

namespace rfid {

void ColumnVector::SetValue(size_t i, const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      SetNull(i);
      return;
    case DataType::kDouble:
      SetDouble(i, v.double_value());
      return;
    case DataType::kString:
      SetString(i, v.string_value());
      return;
    default:
      SetRaw(i, v.type(), v.int64_value());
      return;
  }
}

void ColumnVector::AppendValue(const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      AppendNull();
      return;
    case DataType::kDouble:
      AppendDouble(v.double_value());
      return;
    case DataType::kString:
      AppendString(v.string_value());
      return;
    default:
      AppendRaw(v.type(), v.int64_value());
      return;
  }
}

void ColumnVector::AppendValue(Value&& v) {
  if (v.type() == DataType::kString) {
    AppendString(std::move(v).ReleaseString());
    return;
  }
  AppendValue(v);
}

void ColumnVector::AppendFrom(const ColumnVector& src, size_t i) {
  DataType t = src.tag(i);
  if (t == DataType::kString) {
    AppendString(src.strs_[i]);
    return;
  }
  AppendRaw(t, src.data_[i]);
}

Value ColumnVector::ValueAt(size_t i) const {
  switch (tag(i)) {
    case DataType::kNull:
      return Value::Null();
    case DataType::kBool:
      return Value::Bool(data_[i] != 0);
    case DataType::kInt64:
      return Value::Int64(data_[i]);
    case DataType::kDouble:
      return Value::Double(dbl(i));
    case DataType::kString:
      return Value::String(strs_[i]);
    case DataType::kTimestamp:
      return Value::Timestamp(data_[i]);
    case DataType::kInterval:
      return Value::Interval(data_[i]);
  }
  return Value::Null();
}

Value ColumnVector::MoveValueAt(size_t i) {
  if (tag(i) == DataType::kString) {
    return Value::String(std::move(strs_[i]));
  }
  return ValueAt(i);
}

uint64_t ColumnVector::ApproxBytes() const {
  // Per-entry tag + payload lane, plus live string bytes; approximate the
  // same order of magnitude as ApproxValueBytes on boxed rows.
  uint64_t bytes = tags_.size() * (sizeof(int64_t) + 1);
  for (const std::string& s : strs_) bytes += s.size();
  return bytes;
}

int CompareEntries(const ColumnVector& a, size_t ai, const ColumnVector& b,
                   size_t bi) {
  if (a.tag(ai) == DataType::kString) {
    return a.str(ai).compare(b.str(bi));
  }
  if (a.tag(ai) == DataType::kDouble || b.tag(bi) == DataType::kDouble) {
    double x = a.AsDouble(ai);
    double y = b.AsDouble(bi);
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  int64_t x = a.raw(ai);
  int64_t y = b.raw(bi);
  return x < y ? -1 : (x > y ? 1 : 0);
}

int CompareEntryToValue(const ColumnVector& a, size_t ai, const Value& v) {
  if (a.tag(ai) == DataType::kString) {
    return a.str(ai).compare(v.string_value());
  }
  if (a.tag(ai) == DataType::kDouble || v.type() == DataType::kDouble) {
    double x = a.AsDouble(ai);
    double y = v.AsDouble();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  int64_t x = a.raw(ai);
  int64_t y = v.int64_value();
  return x < y ? -1 : (x > y ? 1 : 0);
}

size_t EntryHash(const ColumnVector& a, size_t i) {
  switch (a.tag(i)) {
    case DataType::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case DataType::kString:
      return std::hash<std::string>()(a.str(i));
    case DataType::kDouble: {
      double d = a.dbl(i);
      int64_t as_int = static_cast<int64_t>(d);
      if (static_cast<double>(as_int) == d) {
        return std::hash<int64_t>()(as_int);
      }
      return std::hash<double>()(d);
    }
    default:
      return std::hash<int64_t>()(a.raw(i));
  }
}

bool EntryEqualsValue(const ColumnVector& a, size_t i, const Value& v) {
  if (a.is_null(i) || v.is_null()) return a.is_null(i) && v.is_null();
  if (!TypesComparable(a.tag(i), v.type())) return false;
  return CompareEntryToValue(a, i, v) == 0;
}

RowBatch::RowBatch(size_t num_columns, size_t capacity)
    : cols_(num_columns),
      capacity_(capacity == 0 ? BatchCapacity() : capacity) {}

void RowBatch::Clear() {
  for (ColumnVector& c : cols_) c.Clear();
  rows_ = 0;
}

void RowBatch::ResetColumns(size_t num_columns) {
  cols_.resize(num_columns);
  Clear();
}

void RowBatch::AppendRow(const Row& row) {
  for (size_t i = 0; i < cols_.size(); ++i) cols_[i].AppendValue(row[i]);
  ++rows_;
}

void RowBatch::AppendRow(Row&& row) {
  for (size_t i = 0; i < cols_.size(); ++i) {
    cols_[i].AppendValue(std::move(row[i]));
  }
  ++rows_;
}

void RowBatch::AppendGathered(const RowBatch& src, size_t i) {
  for (size_t c = 0; c < cols_.size(); ++c) {
    cols_[c].AppendFrom(src.cols_[c], i);
  }
  ++rows_;
}

void RowBatch::EmitRow(size_t i, Row* out) const {
  out->clear();
  out->reserve(cols_.size());
  for (const ColumnVector& c : cols_) out->push_back(c.ValueAt(i));
}

void RowBatch::MoveRowInto(size_t i, Row* out) {
  out->clear();
  out->reserve(cols_.size());
  for (ColumnVector& c : cols_) out->push_back(c.MoveValueAt(i));
}

uint64_t RowBatch::ApproxBytes() const {
  uint64_t bytes = 0;
  for (const ColumnVector& c : cols_) bytes += c.ApproxBytes();
  return bytes;
}

namespace {

constexpr size_t kDefaultBatchSize = 1024;
constexpr size_t kMaxBatchSize = 65536;

std::atomic<size_t> g_override_batch_size{0};

// -1 = default (on); 0 = forced off; 1 = forced on.
std::atomic<int> g_override_vectorized{-1};

}  // namespace

size_t BatchCapacity() {
  size_t o = g_override_batch_size.load(std::memory_order_relaxed);
  return o > 0 ? o : kDefaultBatchSize;
}

void SetBatchCapacityForTest(size_t n) {
  g_override_batch_size.store(std::min(n, kMaxBatchSize),
                              std::memory_order_relaxed);
}

bool VectorizedEnabled() {
  return g_override_vectorized.load(std::memory_order_relaxed) != 0;
}

void SetVectorizedForTest(int mode) {
  g_override_vectorized.store(mode < 0 ? -1 : (mode != 0 ? 1 : 0),
                              std::memory_order_relaxed);
}

}  // namespace rfid
