#include "expr/conjunct.h"

#include "common/string_util.h"

namespace rfid {

namespace {

void SplitOn(const ExprPtr& e, BinaryOp op, std::vector<ExprPtr>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kBinary && e->op == op) {
    SplitOn(e->children[0], op, out);
    SplitOn(e->children[1], op, out);
    return;
  }
  out->push_back(e);
}

}  // namespace

std::vector<ExprPtr> SplitConjuncts(const ExprPtr& e) {
  std::vector<ExprPtr> out;
  SplitOn(e, BinaryOp::kAnd, &out);
  return out;
}

std::vector<ExprPtr> SplitDisjuncts(const ExprPtr& e) {
  std::vector<ExprPtr> out;
  SplitOn(e, BinaryOp::kOr, &out);
  return out;
}

ExprPtr CombineConjuncts(const std::vector<ExprPtr>& conjuncts) {
  ExprPtr out;
  for (const ExprPtr& c : conjuncts) {
    if (c == nullptr) continue;
    out = (out == nullptr) ? c : MakeBinary(BinaryOp::kAnd, out, c);
  }
  return out;
}

ExprPtr CombineDisjuncts(const std::vector<ExprPtr>& disjuncts) {
  ExprPtr out;
  for (const ExprPtr& d : disjuncts) {
    if (d == nullptr) continue;
    out = (out == nullptr) ? d : MakeBinary(BinaryOp::kOr, out, d);
  }
  return out;
}

void CollectColumnRefs(const ExprPtr& e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kColumnRef) {
    out->push_back(e.get());
    return;
  }
  for (const auto& c : e->children) CollectColumnRefs(c, out);
  if (e->window.has_value()) {
    for (const auto& p : e->window->partition_by) CollectColumnRefs(p, out);
    for (const auto& k : e->window->order_by) CollectColumnRefs(k.expr, out);
  }
}

std::set<std::string> ReferencedQualifiers(const ExprPtr& e) {
  std::vector<const Expr*> refs;
  CollectColumnRefs(e, &refs);
  std::set<std::string> out;
  for (const Expr* r : refs) out.insert(ToLower(r->qualifier));
  return out;
}

bool RefersOnlyTo(const ExprPtr& e, std::string_view qualifier) {
  std::vector<const Expr*> refs;
  CollectColumnRefs(e, &refs);
  for (const Expr* r : refs) {
    if (!EqualsIgnoreCase(r->qualifier, qualifier)) return false;
  }
  return true;
}

bool References(const ExprPtr& e, std::string_view qualifier) {
  std::vector<const Expr*> refs;
  CollectColumnRefs(e, &refs);
  for (const Expr* r : refs) {
    if (EqualsIgnoreCase(r->qualifier, qualifier)) return true;
  }
  return false;
}

ExprPtr SubstituteQualifier(const ExprPtr& e, std::string_view from,
                            std::string_view to) {
  return TransformColumnRefs(e, [&](const Expr& ref) -> ExprPtr {
    if (!EqualsIgnoreCase(ref.qualifier, from)) return nullptr;
    return MakeColumnRef(std::string(to), ref.column);
  });
}

ExprPtr StripQualifiers(const ExprPtr& e) {
  return TransformColumnRefs(e, [](const Expr& ref) -> ExprPtr {
    if (ref.qualifier.empty()) return nullptr;
    return MakeColumnRef("", ref.column);
  });
}

bool MatchColumnLiteralCmp(const ExprPtr& conjunct, ColumnLiteralCmp* out) {
  if (conjunct == nullptr || conjunct->kind != ExprKind::kBinary ||
      !IsComparisonOp(conjunct->op)) {
    return false;
  }
  const ExprPtr& l = conjunct->children[0];
  const ExprPtr& r = conjunct->children[1];
  if (l->kind == ExprKind::kColumnRef && r->kind == ExprKind::kLiteral) {
    out->column = l.get();
    out->op = conjunct->op;
    out->literal = r->value;
    return true;
  }
  if (l->kind == ExprKind::kLiteral && r->kind == ExprKind::kColumnRef) {
    out->column = r.get();
    out->op = SwapComparison(conjunct->op);
    out->literal = l->value;
    return true;
  }
  return false;
}

namespace {

// Extracts the raw int64 payload of an INT64/TIMESTAMP/INTERVAL literal.
bool RawInt64(const Value& v, int64_t* out) {
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

// Matches "col - col" or "col + lit" / "col - lit" style operands.
// Represents the side as col_left [- col_right] [+ bias].
struct SideDecomp {
  const Expr* pos_col = nullptr;  // column with + sign
  const Expr* neg_col = nullptr;  // column with - sign (may be null)
  int64_t bias = 0;
};

bool DecomposeSide(const ExprPtr& e, SideDecomp* out) {
  if (e->kind == ExprKind::kColumnRef) {
    out->pos_col = e.get();
    return true;
  }
  if (e->kind == ExprKind::kLiteral) {
    return RawInt64(e->value, &out->bias);
  }
  if (e->kind == ExprKind::kBinary &&
      (e->op == BinaryOp::kAdd || e->op == BinaryOp::kSub)) {
    const ExprPtr& l = e->children[0];
    const ExprPtr& r = e->children[1];
    if (l->kind != ExprKind::kColumnRef) return false;
    out->pos_col = l.get();
    if (r->kind == ExprKind::kLiteral) {
      int64_t lit;
      if (!RawInt64(r->value, &lit)) return false;
      out->bias = (e->op == BinaryOp::kAdd) ? lit : -lit;
      return true;
    }
    if (r->kind == ExprKind::kColumnRef && e->op == BinaryOp::kSub) {
      out->neg_col = r.get();
      return true;
    }
  }
  return false;
}

}  // namespace

bool MatchColumnDifferenceCmp(const ExprPtr& conjunct, ColumnDifferenceCmp* out) {
  if (conjunct == nullptr || conjunct->kind != ExprKind::kBinary ||
      !IsComparisonOp(conjunct->op)) {
    return false;
  }
  SideDecomp lhs, rhs;
  if (!DecomposeSide(conjunct->children[0], &lhs) ||
      !DecomposeSide(conjunct->children[1], &rhs)) {
    return false;
  }
  // Canonical target: L - R OP offset, i.e. move all columns left and all
  // constants right. Supported configurations:
  //   colA op colB [+/- bias]      -> colA - colB op bias
  //   colA - colB op bias          -> as-is
  //   colA [+bias] op colB         -> colA - colB op -bias... (bias moves)
  BinaryOp op = conjunct->op;
  const Expr* left = nullptr;
  const Expr* right = nullptr;
  int64_t offset = 0;
  if (lhs.pos_col != nullptr && lhs.neg_col != nullptr) {
    // colA - colB op bias (rhs must be constant only)
    if (rhs.pos_col != nullptr || rhs.neg_col != nullptr) return false;
    left = lhs.pos_col;
    right = lhs.neg_col;
    offset = rhs.bias - lhs.bias;
  } else if (lhs.pos_col != nullptr && rhs.pos_col != nullptr &&
             rhs.neg_col == nullptr) {
    // colA + biasL op colB + biasR  ->  colA - colB op biasR - biasL
    left = lhs.pos_col;
    right = rhs.pos_col;
    offset = rhs.bias - lhs.bias;
  } else if (lhs.pos_col == nullptr && rhs.pos_col != nullptr &&
             rhs.neg_col != nullptr) {
    // bias op colA - colB  ->  colA - colB swapped-op bias
    left = rhs.pos_col;
    right = rhs.neg_col;
    offset = lhs.bias;
    op = SwapComparison(op);
  } else {
    return false;
  }
  out->left = left;
  out->right = right;
  out->op = op;
  out->offset_micros = offset;
  return true;
}

}  // namespace rfid
