#include "cleansing/chain.h"

#include <cstring>

#include "common/fault.h"
#include "common/string_util.h"
#include "expr/conjunct.h"
#include "sql/render.h"

namespace rfid {

namespace {

void ReplaceInExpr(const ExprPtr& e, std::string_view from,
                   const std::string& to) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kInSubquery && e->subquery != nullptr) {
    ReplaceTableRefs(e->subquery.get(), from, to);
  }
  for (const ExprPtr& c : e->children) ReplaceInExpr(c, from, to);
}

// Replaces the placeholder token in a stage body.
std::string SubstituteInput(const std::string& body, const std::string& input) {
  std::string out = body;
  size_t pos = out.find(kInputPlaceholder);
  while (pos != std::string::npos) {
    out.replace(pos, strlen(kInputPlaceholder), input);
    pos = out.find(kInputPlaceholder, pos + input.size());
  }
  return out;
}

// The name a core's select item contributes to the statement's output.
std::string OutputName(const SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr != nullptr && item.expr->kind == ExprKind::kColumnRef) {
    return item.expr->column;
  }
  return "";
}

// True when filtering a core's output equals filtering its FROM rows with
// the projected expressions substituted in.
bool RowsFilterable(const SelectCore& core) {
  if (!core.group_by.empty() || core.having != nullptr) return false;
  for (const SelectItem& item : core.items) {
    if (item.is_star || ContainsAggregate(item.expr) ||
        ContainsWindowCall(item.expr)) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool PushFilterIntoCores(SelectStatement* stmt, const ExprPtr& filter) {
  if (filter == nullptr) return true;
  if (stmt->cores.empty() || stmt->limit >= 0) return false;
  // A UNION ALL takes its column names from the first core.
  std::vector<std::string> names;
  for (const SelectItem& item : stmt->cores.front().items) {
    names.push_back(OutputName(item));
  }
  auto position = [&](const std::string& column) {
    for (size_t i = 0; i < names.size(); ++i) {
      if (EqualsIgnoreCase(names[i], column)) return i;
    }
    return names.size();
  };
  for (const SelectCore& core : stmt->cores) {
    if (core.items.size() != names.size() || !RowsFilterable(core)) {
      return false;
    }
  }
  std::vector<const Expr*> refs;
  CollectColumnRefs(filter, &refs);
  for (const Expr* ref : refs) {
    if (!ref->qualifier.empty() || position(ref->column) == names.size()) {
      return false;
    }
  }
  for (SelectCore& core : stmt->cores) {
    ExprPtr pushed = TransformColumnRefs(filter, [&](const Expr& ref) {
      return CloneExpr(core.items[position(ref.column)].expr);
    });
    std::vector<ExprPtr> conjuncts = SplitConjuncts(core.where);
    for (const ExprPtr& c : SplitConjuncts(pushed)) conjuncts.push_back(c);
    core.where = CombineConjuncts(conjuncts);
  }
  return true;
}

void ReplaceTableRefs(SelectStatement* stmt, std::string_view from,
                      const std::string& to) {
  for (WithClause& w : stmt->with) {
    ReplaceTableRefs(w.body.get(), from, to);
  }
  for (SelectCore& core : stmt->cores) {
    for (TableRef& ref : core.from) {
      if (EqualsIgnoreCase(ref.table_name, from)) {
        // Keep the visible alias: rows were addressed by the original
        // name/alias in predicates.
        if (EqualsIgnoreCase(ref.alias, ref.table_name)) {
          ref.alias = ref.table_name;  // alias stays the old name
        }
        ref.table_name = to;
      }
    }
    ReplaceInExpr(core.where, from, to);
    for (const SelectItem& item : core.items) ReplaceInExpr(item.expr, from, to);
    for (const ExprPtr& g : core.group_by) ReplaceInExpr(g, from, to);
  }
}

Result<CleansingChain> BuildCleansingChain(
    const std::vector<const CleansingRule*>& rules, const Database& db,
    const std::string& input_name, const std::vector<Column>& input_columns,
    const ExprPtr& derived_filter) {
  RFID_FAULT_POINT("cleansing.BuildChain");
  CleansingChain chain;
  std::string current = input_name;
  std::vector<Column> current_cols = input_columns;
  for (size_t i = 0; i < rules.size(); ++i) {
    const CleansingRule& rule = *rules[i];
    if (rule.HasDerivedInput()) {
      StatementPtr derived = CloneStatement(rule.from_select);
      ReplaceTableRefs(derived.get(), rule.on_table, current);
      const bool pushed = PushFilterIntoCores(derived.get(), derived_filter);
      std::string name = StrFormat("__rin%zu", i);
      chain.with_clauses.emplace_back(name, StatementToSql(*derived));
      current = name;
      RFID_ASSIGN_OR_RETURN(current_cols, RuleInputColumns(rule, db));
      if (!pushed) {
        std::string filtered = StrFormat("__rinf%zu", i);
        chain.with_clauses.emplace_back(
            filtered, "SELECT * FROM " + name + " WHERE " +
                          RenderExpr(derived_filter));
        current = filtered;
      }
    } else if (!rule.from_table.empty() &&
               !EqualsIgnoreCase(rule.from_table, rule.on_table)) {
      // Input is a different plain table: the chain switches to it; the
      // restricted input is not applicable (rare; kept for completeness).
      current = rule.from_table;
      RFID_ASSIGN_OR_RETURN(current_cols, RuleInputColumns(rule, db));
    }
    RFID_ASSIGN_OR_RETURN(
        CompiledRule compiled,
        CompileRule(rule, current_cols, StrFormat("__r%zu", i)));
    for (const CompiledStage& stage : compiled.stages) {
      chain.with_clauses.emplace_back(stage.with_name,
                                      SubstituteInput(stage.body_sql, current));
    }
    current = compiled.output_name;
    current_cols = compiled.output_columns;
  }
  chain.output_name = current;
  chain.output_columns = std::move(current_cols);
  return chain;
}

}  // namespace rfid
