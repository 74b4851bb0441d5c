// SQL/OLAP window-function operator (SQL99 OVER clause) — the machinery
// the paper compiles cleansing rules into.
//
// Contract: the input must already be sorted by (partition keys, order
// keys); the planner inserts a Sort when the child does not provide that
// order. Keeping the sort outside the operator is what lets consecutive
// cleansing rules — and a user query's own OLAP functions — share a
// single sort, the effect Section 6.2 of the paper highlights.
//
// The operator appends one column per WindowAggSpec to every input row.
// Frames:
//   ROWS  BETWEEN <n> PRECEDING|FOLLOWING AND ...   (physical offsets)
//   RANGE BETWEEN <interval> PRECEDING|FOLLOWING AND ... (logical offsets
//         on a single ascending numeric/timestamp order key)
// evaluated with amortized O(1) sliding frame endpoints per row.
#ifndef RFID_EXEC_WINDOW_H_
#define RFID_EXEC_WINDOW_H_

#include <optional>

#include "exec/aggregate.h"
#include "exec/operator.h"
#include "exec/sort.h"
#include "expr/bytecode.h"

namespace rfid {

/// One window aggregate: FUNC(arg) OVER (... frame). The partition/order
/// keys are shared by the whole operator (all aggs in one WindowOp use the
/// same window ordering — the planner groups compatible specs).
struct WindowAggSpec {
  AggFunc func = AggFunc::kMax;
  ExprPtr arg;              // bound against child output; null for COUNT(*)
  FrameSpec frame;          // delta semantics per FrameBound
  std::string output_name;  // name of the appended column
  DataType result_type = DataType::kNull;
};

/// The sorted input is cut at partition boundaries and each group's
/// frames are computed independently (frames never cross a partition
/// boundary). This is the hot path of every naive/expanded/join-back
/// cleansing rewrite, which compile to windows partitioned by tag/EPC.
class WindowOp : public Operator {
 public:
  /// partition_slots/order key slots index into the child's output row.
  WindowOp(OperatorPtr child, std::vector<size_t> partition_slots,
           std::vector<SlotSortKey> order_keys, std::vector<WindowAggSpec> aggs);

  std::string name() const override { return "Window"; }
  std::string detail() const override;
  std::vector<const Operator*> children() const override { return {child_.get()}; }

  const std::vector<size_t>& partition_slots() const { return partition_slots_; }
  const std::vector<SlotSortKey>& order_keys() const { return order_keys_; }
  const std::vector<WindowAggSpec>& aggs() const { return aggs_; }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* row) override;
  void CloseImpl() override;

 private:
  Status ComputePartition(size_t begin, size_t end);
  /// Evaluates agg a's argument over partition rows [begin, end) into a
  /// columnar cache — once per row instead of once per (row, frame
  /// member) pair. Uses the compiled program when available, the row
  /// interpreter otherwise; either way each row is evaluated exactly
  /// once, so results match the uncached engine bit for bit.
  Status FillArgCache(size_t a, size_t begin, size_t end, ColumnVector* out);

  OperatorPtr child_;
  std::vector<size_t> partition_slots_;
  std::vector<SlotSortKey> order_keys_;
  std::vector<WindowAggSpec> aggs_;
  // Compiled argument programs (empty when the vectorized engine is
  // off; nullopt per agg on COUNT(*) or compile fallback).
  std::vector<std::optional<ExprProgram>> arg_progs_;

  std::vector<Row> rows_;  // materialized input, extended in place
  size_t pos_ = 0;
};

}  // namespace rfid

#endif  // RFID_EXEC_WINDOW_H_
