// Hash join (inner and left-semi). The build side is fully materialized
// into a hash table on Open; the probe side streams, so probe-side
// ordering is preserved — a property the planner exploits to avoid
// re-sorting sequence data after joining reference tables.
#ifndef RFID_EXEC_HASH_JOIN_H_
#define RFID_EXEC_HASH_JOIN_H_

#include <unordered_map>

#include "exec/operator.h"

namespace rfid {

enum class JoinType {
  kInner,
  kLeftSemi,  // emit probe row if at least one build match (dedup semantics)
};

/// Output row layout: probe fields followed by build fields (kInner), or
/// probe fields only (kLeftSemi).
class HashJoinOp : public Operator {
 public:
  HashJoinOp(OperatorPtr probe, OperatorPtr build,
             std::vector<size_t> probe_key_slots,
             std::vector<size_t> build_key_slots, JoinType type);

  std::string name() const override {
    return type_ == JoinType::kInner ? "HashJoin" : "HashSemiJoin";
  }
  std::string detail() const override;
  std::vector<const Operator*> children() const override {
    return {probe_.get(), build_.get()};
  }

  const std::vector<size_t>& probe_key_slots() const { return probe_key_slots_; }
  const std::vector<size_t>& build_key_slots() const { return build_key_slots_; }
  JoinType join_type() const { return type_; }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* row) override;
  Result<bool> NextBatchImpl(RowBatch* batch) override;
  void CloseImpl() override;

 private:
  using HashTable =
      std::unordered_map<std::vector<Value>, std::vector<Row>, RowHash, RowEq>;

  // True when any key slot is NULL (SQL joins never match on NULL keys).
  // Non-null keys are hashed and probed through the transparent
  // RowKeyView/BatchKeyView overloads of RowHash/RowEq, so lookups never
  // materialize a key vector; owned keys are built only when a build row
  // starts a new bucket.
  static bool HasNullKey(const Row& row, const std::vector<size_t>& slots);

  Status BuildTable();

  OperatorPtr probe_;
  OperatorPtr build_;
  std::vector<size_t> probe_key_slots_;
  std::vector<size_t> build_key_slots_;
  JoinType type_;

  HashTable table_;
  // Iteration state for multi-match inner joins.
  Row current_probe_;
  const std::vector<Row>* current_matches_ = nullptr;
  size_t match_pos_ = 0;
  // Batch-probe state: the current probe batch, the cursor into it, and
  // the row whose matches are being emitted.
  RowBatch probe_batch_;
  size_t probe_row_ = 0;
  size_t cur_row_ = 0;
  bool probe_done_ = false;
  uint64_t probe_bytes_ = 0;
};

}  // namespace rfid

#endif  // RFID_EXEC_HASH_JOIN_H_
