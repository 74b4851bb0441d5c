// Conjunct surgery: splitting predicates into AND-ed conjuncts,
// recombining them, and inspecting/rewriting the column references they
// touch. Used heavily by predicate pushdown and the rewrite engine.
#ifndef RFID_EXPR_CONJUNCT_H_
#define RFID_EXPR_CONJUNCT_H_

#include <set>
#include <string>
#include <vector>

#include "expr/expr.h"

namespace rfid {

/// Splits e on top-level ANDs. A null expression yields an empty list.
std::vector<ExprPtr> SplitConjuncts(const ExprPtr& e);

/// Splits e on top-level ORs. A null expression yields an empty list.
std::vector<ExprPtr> SplitDisjuncts(const ExprPtr& e);

/// ANDs the conjuncts together; returns nullptr for an empty list.
ExprPtr CombineConjuncts(const std::vector<ExprPtr>& conjuncts);

/// ORs the disjuncts together; returns nullptr for an empty list.
ExprPtr CombineDisjuncts(const std::vector<ExprPtr>& disjuncts);

/// Collects every column reference node in the tree (including inside
/// window specs).
void CollectColumnRefs(const ExprPtr& e, std::vector<const Expr*>* out);

/// The set of distinct qualifiers referenced (lower-cased). Unqualified
/// references contribute "".
std::set<std::string> ReferencedQualifiers(const ExprPtr& e);

/// True if every column reference in e is qualified with `qualifier`
/// (case-insensitive). Vacuously true for reference-free expressions.
bool RefersOnlyTo(const ExprPtr& e, std::string_view qualifier);

/// True if some column reference in e has the qualifier.
bool References(const ExprPtr& e, std::string_view qualifier);

/// Replaces qualifier `from` with `to` on every column reference.
ExprPtr SubstituteQualifier(const ExprPtr& e, std::string_view from,
                            std::string_view to);

/// Strips all qualifiers from column references.
ExprPtr StripQualifiers(const ExprPtr& e);

/// A conjunct of the form <qualifier.column> <cmp> <literal> (either
/// orientation), decomposed into a canonical column-op-literal view.
struct ColumnLiteralCmp {
  const Expr* column = nullptr;  // the column-ref node
  BinaryOp op = BinaryOp::kEq;   // oriented as column OP literal
  Value literal;
};

/// Tries to view the conjunct as column-cmp-literal. Also matches
/// "col - col2" style only when that is NOT the case — returns false for
/// anything but a direct column/literal comparison.
bool MatchColumnLiteralCmp(const ExprPtr& conjunct, ColumnLiteralCmp* out);

/// A conjunct comparing two columns, possibly with a literal interval
/// offset on one side, canonicalized to:
///   left.column - right.column  <op>  offset
/// Matches shapes such as "A.rtime < B.rtime", "B.rtime - A.rtime < 5 MINUTES",
/// "A.x = B.y".
struct ColumnDifferenceCmp {
  const Expr* left = nullptr;
  const Expr* right = nullptr;
  BinaryOp op = BinaryOp::kEq;  // oriented: left - right OP offset
  int64_t offset_micros = 0;    // 0 when no explicit offset
};

bool MatchColumnDifferenceCmp(const ExprPtr& conjunct, ColumnDifferenceCmp* out);

}  // namespace rfid

#endif  // RFID_EXPR_CONJUNCT_H_
