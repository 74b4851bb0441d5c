// Blocking sort operator. NULLs sort first (ascending).
#ifndef RFID_EXEC_SORT_H_
#define RFID_EXEC_SORT_H_

#include "exec/operator.h"

namespace rfid {

/// A sort key bound to a slot of the child's output row.
struct SlotSortKey {
  size_t slot = 0;
  bool ascending = true;
};

/// Compares rows by the given keys; returns <0, 0, >0.
int CompareRows(const Row& a, const Row& b, const std::vector<SlotSortKey>& keys);

/// Blocking stable sort of the whole input.
class SortOp : public Operator {
 public:
  SortOp(OperatorPtr child, std::vector<SlotSortKey> keys);

  std::string name() const override { return "Sort"; }
  std::string detail() const override;
  std::vector<const Operator*> children() const override { return {child_.get()}; }

  /// Total rows this operator has sorted across Opens — the experiments
  /// track sorting volume because sequence-ordering cost dominates
  /// cleansing (Section 6.2 of the paper).
  uint64_t rows_sorted() const { return rows_sorted_; }

  const std::vector<SlotSortKey>& keys() const { return keys_; }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* row) override;
  void CloseImpl() override;

 private:
  OperatorPtr child_;
  std::vector<SlotSortKey> keys_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
  uint64_t rows_sorted_ = 0;
};

}  // namespace rfid

#endif  // RFID_EXEC_SORT_H_
