#include "exec/hash_join.h"

namespace rfid {

namespace {
RowDesc JoinOutputDesc(const Operator& probe, const Operator& build,
                       JoinType type) {
  if (type == JoinType::kLeftSemi) return probe.output_desc();
  return RowDesc::Concat(probe.output_desc(), build.output_desc());
}
}  // namespace

bool HashJoinOp::HasNullKey(const Row& row, const std::vector<size_t>& slots) {
  for (size_t s : slots) {
    if (row[s].is_null()) return true;
  }
  return false;
}

HashJoinOp::HashJoinOp(OperatorPtr probe, OperatorPtr build,
                       std::vector<size_t> probe_key_slots,
                       std::vector<size_t> build_key_slots, JoinType type)
    : Operator(JoinOutputDesc(*probe, *build, type)),
      probe_(std::move(probe)),
      build_(std::move(build)),
      probe_key_slots_(std::move(probe_key_slots)),
      build_key_slots_(std::move(build_key_slots)),
      type_(type) {}

// Rough per-entry bookkeeping overhead of the build hash table (bucket
// array slot, node header, key vector) on top of the row payload.
constexpr uint64_t kHashEntryOverheadBytes = 64;

Status HashJoinOp::BuildTable() {
  std::vector<Row> build_rows;
  RFID_RETURN_IF_ERROR(DrainChildAccounted(build_.get(), &build_rows));
  for (Row& r : build_rows) {
    if (HasNullKey(r, build_key_slots_)) continue;
    auto it = table_.find(RowKeyView{&r, &build_key_slots_});
    if (it == table_.end()) {
      std::vector<Value> key;
      key.reserve(build_key_slots_.size());
      for (size_t s : build_key_slots_) key.push_back(r[s]);
      it = table_.emplace(std::move(key), std::vector<Row>()).first;
    }
    std::vector<Row>& bucket = it->second;
    if (type_ == JoinType::kLeftSemi && !bucket.empty()) continue;
    RFID_RETURN_IF_ERROR(ChargeMemory(kHashEntryOverheadBytes));
    bucket.push_back(std::move(r));
  }
  return Status::OK();
}

Status HashJoinOp::OpenImpl() {
  table_.clear();
  current_matches_ = nullptr;
  match_pos_ = 0;
  probe_row_ = 0;
  cur_row_ = 0;
  probe_done_ = false;
  probe_bytes_ = 0;
  RFID_RETURN_IF_ERROR(BuildTable());
  return probe_->Open();
}

Result<bool> HashJoinOp::NextImpl(Row* row) {
  while (true) {
    if (current_matches_ != nullptr && match_pos_ < current_matches_->size()) {
      const Row& build_row = (*current_matches_)[match_pos_++];
      if (match_pos_ == current_matches_->size()) {
        *row = std::move(current_probe_);  // last match owns the probe row
      } else {
        *row = current_probe_;
      }
      row->insert(row->end(), build_row.begin(), build_row.end());
      ++rows_produced_;
      return true;
    }
    current_matches_ = nullptr;
    RFID_ASSIGN_OR_RETURN(bool has, probe_->Next(&current_probe_));
    if (!has) return false;
    if (HasNullKey(current_probe_, probe_key_slots_)) continue;
    auto it = table_.find(RowKeyView{&current_probe_, &probe_key_slots_});
    if (it == table_.end()) continue;
    if (type_ == JoinType::kLeftSemi) {
      *row = std::move(current_probe_);
      ++rows_produced_;
      return true;
    }
    current_matches_ = &it->second;
    match_pos_ = 0;
  }
}

Result<bool> HashJoinOp::NextBatchImpl(RowBatch* batch) {
  const size_t probe_width = probe_->output_desc().num_fields();
  while (!batch->full()) {
    if (current_matches_ != nullptr) {
      if (match_pos_ < current_matches_->size()) {
        const Row& build_row = (*current_matches_)[match_pos_++];
        for (size_t c = 0; c < probe_width; ++c) {
          batch->col(c).AppendFrom(probe_batch_.col(c), cur_row_);
        }
        for (size_t c = 0; c < build_row.size(); ++c) {
          batch->col(probe_width + c).AppendValue(build_row[c]);
        }
        batch->set_num_rows(batch->num_rows() + 1);
        continue;
      }
      current_matches_ = nullptr;
    }
    if (probe_row_ >= probe_batch_.num_rows()) {
      if (probe_done_) break;
      RFID_ASSIGN_OR_RETURN(bool has, probe_->NextBatch(&probe_batch_));
      if (!has) {
        probe_done_ = true;
        break;
      }
      ReleaseMemory(probe_bytes_);
      probe_bytes_ = 0;
      const uint64_t bytes = probe_batch_.ApproxBytes();
      RFID_RETURN_IF_ERROR(ChargeMemory(bytes));
      probe_bytes_ = bytes;
      probe_row_ = 0;
      continue;
    }
    const size_t r = probe_row_++;
    bool null_key = false;
    for (size_t s : probe_key_slots_) {
      if (probe_batch_.col(s).is_null(r)) {
        null_key = true;
        break;
      }
    }
    if (null_key) continue;
    auto it = table_.find(BatchKeyView{&probe_batch_, r, &probe_key_slots_});
    if (it == table_.end()) continue;
    if (type_ == JoinType::kLeftSemi) {
      batch->AppendGathered(probe_batch_, r);
      continue;
    }
    cur_row_ = r;
    current_matches_ = &it->second;
    match_pos_ = 0;
  }
  rows_produced_ += batch->num_rows();
  return !batch->empty();
}

void HashJoinOp::CloseImpl() {
  current_matches_ = nullptr;
  table_.clear();
  probe_batch_.ResetColumns(0);
  probe_->Close();
  build_->Close();
}

std::string HashJoinOp::detail() const {
  std::string out;
  for (size_t i = 0; i < probe_key_slots_.size(); ++i) {
    if (i > 0) out += " AND ";
    const Field& pf = probe_->output_desc().field(probe_key_slots_[i]);
    const Field& bf = build_->output_desc().field(build_key_slots_[i]);
    std::string lhs = pf.qualifier.empty() ? pf.name : pf.qualifier + "." + pf.name;
    std::string rhs = bf.qualifier.empty() ? bf.name : bf.qualifier + "." + bf.name;
    out += lhs + " = " + rhs;
  }
  return out;
}

}  // namespace rfid
