#include "exec/sort.h"

#include <algorithm>


namespace rfid {

int CompareRows(const Row& a, const Row& b, const std::vector<SlotSortKey>& keys) {
  for (const SlotSortKey& k : keys) {
    const Value& va = a[k.slot];
    const Value& vb = b[k.slot];
    int c;
    if (va.is_null() || vb.is_null()) {
      // NULLs first: null < non-null.
      c = (va.is_null() ? 0 : 1) - (vb.is_null() ? 0 : 1);
    } else {
      c = va.Compare(vb);
    }
    if (c != 0) return k.ascending ? c : -c;
  }
  return 0;
}

SortOp::SortOp(OperatorPtr child, std::vector<SlotSortKey> keys)
    : Operator(child->output_desc()),
      child_(std::move(child)),
      keys_(std::move(keys)) {}

Status SortOp::OpenImpl() {
  pos_ = 0;
  rows_.clear();
  RFID_RETURN_IF_ERROR(DrainChildAccounted(child_.get(), &rows_));
  rows_sorted_ += rows_.size();
  std::stable_sort(rows_.begin(), rows_.end(),
                   [this](const Row& a, const Row& b) {
                     return CompareRows(a, b, keys_) < 0;
                   });
  return Status::OK();
}

Result<bool> SortOp::NextImpl(Row* row) {
  if (pos_ >= rows_.size()) return false;
  *row = std::move(rows_[pos_++]);
  ++rows_produced_;
  return true;
}

void SortOp::CloseImpl() {
  rows_.clear();
  rows_.shrink_to_fit();
  child_->Close();
}

std::string SortOp::detail() const {
  std::string out;
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) out += ", ";
    const Field& f = output_desc_.field(keys_[i].slot);
    if (!f.qualifier.empty()) out += f.qualifier + ".";
    out += f.name;
    if (!keys_[i].ascending) out += " DESC";
  }
  return out;
}

}  // namespace rfid
