#include "exec/window.h"

#include <cassert>

#include "common/string_util.h"
#include "verify/bytecode_verifier.h"

namespace rfid {

namespace {

RowDesc ExtendedDesc(const Operator& child, const std::vector<WindowAggSpec>& aggs) {
  RowDesc desc = child.output_desc();
  for (const WindowAggSpec& a : aggs) {
    desc.AddField("", a.output_name, a.result_type);
  }
  return desc;
}

// Extracts the raw int64 ordering value of a RANGE order key.
bool RawOrderValue(const Value& v, int64_t* out) {
  switch (v.type()) {
    case DataType::kInt64:
      *out = v.int64_value();
      return true;
    case DataType::kTimestamp:
      *out = v.timestamp_value();
      return true;
    case DataType::kInterval:
      *out = v.interval_value();
      return true;
    default:
      return false;
  }
}

// Accumulator over a frame of rows. Arguments are read from a
// per-partition columnar cache (one eval per row instead of one per
// (row, frame member) pair); entries are boxed back into Values only
// when a MIN/MAX candidate actually wins, so frame evaluation does no
// per-member Value copies.
class FrameAggregator {
 public:
  // `args` holds spec.arg evaluated for every partition-local row; it is
  // never read for COUNT(*), whose cache stays empty.
  FrameAggregator(const WindowAggSpec& spec, const ColumnVector* args)
      : spec_(spec), args_(args) {}

  // idx is the partition-local row index into the arg cache.
  void Add(size_t idx) {
    if (spec_.arg != nullptr && args_->is_null(idx)) return;
    switch (spec_.func) {
      case AggFunc::kCount:
        ++count_;
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg: {
        ++count_;
        sum_ += args_->AsDouble(idx);
        const DataType t = args_->tag(idx);
        if (t == DataType::kInt64 || t == DataType::kInterval) {
          int_sum_ += args_->raw(idx);
        } else {
          is_double_ = true;
        }
        break;
      }
      case AggFunc::kMin:
        if (minmax_.is_null() ||
            CompareEntryToValue(*args_, idx, minmax_) < 0) {
          minmax_ = args_->ValueAt(idx);
        }
        break;
      case AggFunc::kMax:
        if (minmax_.is_null() ||
            CompareEntryToValue(*args_, idx, minmax_) > 0) {
          minmax_ = args_->ValueAt(idx);
        }
        break;
    }
  }

  Value Finish() const {
    switch (spec_.func) {
      case AggFunc::kCount:
        return Value::Int64(count_);
      case AggFunc::kSum:
        if (count_ == 0) return Value::Null();
        if (spec_.result_type == DataType::kInterval) {
          return Value::Interval(int_sum_);
        }
        if (is_double_ || spec_.result_type == DataType::kDouble) {
          return Value::Double(sum_);
        }
        return Value::Int64(int_sum_);
      case AggFunc::kAvg:
        if (count_ == 0) return Value::Null();
        if (spec_.result_type == DataType::kInterval) {
          return Value::Interval(int_sum_ / count_);
        }
        return Value::Double(sum_ / static_cast<double>(count_));
      case AggFunc::kMin:
      case AggFunc::kMax:
        return minmax_;
    }
    return Value::Null();
  }

 private:
  const WindowAggSpec& spec_;
  const ColumnVector* args_;
  int64_t count_ = 0;
  double sum_ = 0;
  int64_t int_sum_ = 0;
  bool is_double_ = false;
  Value minmax_;
};

}  // namespace

WindowOp::WindowOp(OperatorPtr child, std::vector<size_t> partition_slots,
                   std::vector<SlotSortKey> order_keys,
                   std::vector<WindowAggSpec> aggs)
    : Operator(ExtendedDesc(*child, aggs)),
      child_(std::move(child)),
      partition_slots_(std::move(partition_slots)),
      order_keys_(std::move(order_keys)),
      aggs_(std::move(aggs)) {}

Status WindowOp::OpenImpl() {
  pos_ = 0;
  rows_.clear();
  RFID_RETURN_IF_ERROR(DrainChildAccounted(child_.get(), &rows_));

  // Compile each agg's argument once; an agg whose compile falls back
  // uses the interpreter.
  arg_progs_.clear();
  if (VectorizedEnabled()) {
    for (const WindowAggSpec& a : aggs_) {
      if (a.arg == nullptr) {
        arg_progs_.emplace_back();
        continue;
      }
      RFID_ASSIGN_OR_RETURN(
          std::optional<ExprProgram> compiled,
          CompileVerified(*a.arg, child_->output_desc(), "Window"));
      arg_progs_.emplace_back(std::move(compiled));
    }
  }

  // Walk the (sorted) input one maximal run of equal partition keys at
  // a time.
  size_t begin = 0;
  while (begin < rows_.size()) {
    size_t end = begin + 1;
    while (end < rows_.size()) {
      bool same = true;
      for (size_t s : partition_slots_) {
        if (!rows_[begin][s].DistinctEquals(rows_[end][s])) {
          same = false;
          break;
        }
      }
      if (!same) break;
      ++end;
    }
    RFID_RETURN_IF_ERROR(ComputePartition(begin, end));
    begin = end;
  }
  return Status::OK();
}

Status WindowOp::FillArgCache(size_t a, size_t begin, size_t end,
                              ColumnVector* out) {
  const size_t n = end - begin;
  const WindowAggSpec& spec = aggs_[a];
  const ExprProgram* prog = a < arg_progs_.size() && arg_progs_[a].has_value()
                                ? &*arg_progs_[a]
                                : nullptr;
  if (prog != nullptr) {
    const int slot = prog->single_column_slot();
    if (slot >= 0) {
      // Plain column argument: gather it directly, no program run.
      for (size_t i = 0; i < n; ++i) {
        out->AppendValue(rows_[begin + i][static_cast<size_t>(slot)]);
      }
      return Status::OK();
    }
    // Build a partial batch holding only the referenced columns; the
    // others stay empty and are never read by the program.
    RowBatch tmp(child_->output_desc().num_fields(), n);
    for (int s : prog->referenced_slots()) {
      ColumnVector& c = tmp.col(static_cast<size_t>(s));
      for (size_t i = 0; i < n; ++i) {
        c.AppendValue(rows_[begin + i][static_cast<size_t>(s)]);
      }
    }
    tmp.set_num_rows(n);
    ExprScratch scratch;
    prog->Eval(tmp, nullptr, 0, out, &scratch);
    return Status::OK();
  }
  out->Reset(n);
  for (size_t i = 0; i < n; ++i) {
    RFID_ASSIGN_OR_RETURN(Value v, EvalExpr(*spec.arg, rows_[begin + i]));
    out->SetValue(i, v);
  }
  return Status::OK();
}

Status WindowOp::ComputePartition(size_t begin, size_t end) {
  const size_t n = end - begin;
  // Results per agg, appended to rows after all aggs are computed so that
  // no agg sees another's output (same-SELECT-level semantics).
  RFID_RETURN_IF_ERROR(
      ChargeMemory(static_cast<uint64_t>(n) * aggs_.size() * sizeof(Value)));
  std::vector<std::vector<Value>> outputs(aggs_.size());
  ColumnVector arg_cache;

  for (size_t a = 0; a < aggs_.size(); ++a) {
    const WindowAggSpec& spec = aggs_[a];
    outputs[a].resize(n);
    const FrameSpec& f = spec.frame;

    arg_cache.Clear();
    uint64_t cache_bytes = 0;
    if (spec.arg != nullptr) {
      RFID_RETURN_IF_ERROR(FillArgCache(a, begin, end, &arg_cache));
      cache_bytes = arg_cache.ApproxBytes();
      RFID_RETURN_IF_ERROR(ChargeMemory(cache_bytes));
    }

    if (f.unit == FrameUnit::kRows) {
      if (f.start.unbounded && f.end.unbounded) {
        // Whole-partition frame: one accumulation shared by every row.
        FrameAggregator agg(spec, &arg_cache);
        for (size_t j = 0; j < n; ++j) agg.Add(j);
        const Value result = agg.Finish();
        for (size_t i = 0; i < n; ++i) outputs[a][i] = result;
      } else if (f.start.unbounded && !f.end.unbounded && f.end.delta == 0) {
        // Running frame (UNBOUNDED PRECEDING .. CURRENT ROW): extend one
        // accumulator instead of recomputing each prefix. Additions
        // happen in the same order the recomputed frames would make
        // them, so sums and comparisons are bit-identical.
        FrameAggregator agg(spec, &arg_cache);
        for (size_t i = 0; i < n; ++i) {
          agg.Add(i);
          outputs[a][i] = agg.Finish();
        }
      } else {
        for (size_t i = 0; i < n; ++i) {
          int64_t lo = f.start.unbounded
                           ? 0
                           : static_cast<int64_t>(i) + f.start.delta;
          int64_t hi = f.end.unbounded ? static_cast<int64_t>(n) - 1
                                       : static_cast<int64_t>(i) + f.end.delta;
          if (lo < 0) lo = 0;
          if (hi > static_cast<int64_t>(n) - 1) {
            hi = static_cast<int64_t>(n) - 1;
          }
          FrameAggregator agg(spec, &arg_cache);
          for (int64_t j = lo; j <= hi; ++j) {
            agg.Add(static_cast<size_t>(j));
          }
          outputs[a][i] = agg.Finish();
        }
      }
      ReleaseMemory(cache_bytes);
      continue;
    }

    // RANGE frame: requires a single ascending order key of an
    // int64-represented type.
    if (order_keys_.size() != 1 || !order_keys_[0].ascending) {
      return Status::Unimplemented(
          "RANGE frames require a single ascending ORDER BY key");
    }
    size_t key_slot = order_keys_[0].slot;
    // Sliding frame endpoints: both thresholds are nondecreasing in i.
    size_t lo_ptr = 0;
    size_t hi_ptr = 0;
    for (size_t i = 0; i < n; ++i) {
      const Value& key = rows_[begin + i][key_slot];
      int64_t k;
      if (key.is_null() || !RawOrderValue(key, &k)) {
        // NULL order key: no well-defined logical frame; emit over an
        // empty frame (COUNT -> 0, others -> NULL).
        outputs[a][i] = FrameAggregator(spec, &arg_cache).Finish();
        continue;
      }
      size_t lo = 0;
      if (!f.start.unbounded) {
        int64_t threshold = k + f.start.delta;
        while (lo_ptr < n) {
          const Value& kj = rows_[begin + lo_ptr][key_slot];
          int64_t vj;
          if (kj.is_null() || !RawOrderValue(kj, &vj)) {
            ++lo_ptr;  // NULL keys sort first; skip them for RANGE frames
            continue;
          }
          if (vj >= threshold) break;
          ++lo_ptr;
        }
        lo = lo_ptr;
      }
      size_t hi = n;  // exclusive
      if (!f.end.unbounded) {
        int64_t threshold = k + f.end.delta;
        if (hi_ptr < lo_ptr) hi_ptr = lo_ptr;
        while (hi_ptr < n) {
          const Value& kj = rows_[begin + hi_ptr][key_slot];
          int64_t vj;
          if (kj.is_null() || !RawOrderValue(kj, &vj)) {
            ++hi_ptr;
            continue;
          }
          if (vj > threshold) break;
          ++hi_ptr;
        }
        hi = hi_ptr;
      }
      FrameAggregator agg(spec, &arg_cache);
      for (size_t j = (f.start.unbounded ? 0 : lo); j < hi; ++j) {
        const Value& kj = rows_[begin + j][key_slot];
        if (kj.is_null()) continue;
        agg.Add(j);
      }
      outputs[a][i] = agg.Finish();
    }
    ReleaseMemory(cache_bytes);
  }

  for (size_t i = 0; i < n; ++i) {
    Row& r = rows_[begin + i];
    for (size_t a = 0; a < aggs_.size(); ++a) {
      r.push_back(std::move(outputs[a][i]));
    }
  }
  return Status::OK();
}

Result<bool> WindowOp::NextImpl(Row* row) {
  if (pos_ >= rows_.size()) return false;
  *row = std::move(rows_[pos_++]);
  ++rows_produced_;
  return true;
}

void WindowOp::CloseImpl() {
  rows_.clear();
  rows_.shrink_to_fit();
  child_->Close();
}

std::string WindowOp::detail() const {
  std::vector<std::string> parts;
  for (const WindowAggSpec& a : aggs_) {
    std::string s = AggFuncName(a.func);
    s += "(";
    s += a.arg == nullptr ? "*" : ExprToSql(a.arg);
    s += ") AS " + a.output_name;
    parts.push_back(std::move(s));
  }
  return Join(parts, ", ");
}

}  // namespace rfid
