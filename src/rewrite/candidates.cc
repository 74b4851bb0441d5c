#include "rewrite/candidates.h"

#include "expr/conjunct.h"
#include "sql/parser.h"
#include "sql/render.h"

namespace rfid {

namespace {

constexpr const char* kInputName = "__cl_input";
constexpr const char* kKeysSourceName = "__jb_keysrc";
constexpr const char* kKeysName = "__jb_keys";

Result<WithClause> MakeWith(const std::string& name, const std::string& body) {
  RFID_ASSIGN_OR_RETURN(StatementPtr stmt, ParseSql(body));
  return WithClause{name, std::move(stmt)};
}

}  // namespace

Result<std::string> AssembleRewrite(const SelectStatement& original,
                                    const std::string& table,
                                    const std::vector<const CleansingRule*>& rules,
                                    const Database& db,
                                    const CandidateSpec& spec) {
  const Table* base = db.GetTable(table);
  if (base == nullptr) {
    return Status::NotFound("rewrite target table not found: " + table);
  }
  std::vector<WithClause> clauses;

  // Join-back preamble: the distinct cluster keys of the (derived or raw)
  // input that satisfy the query condition.
  const std::string& ckey = rules.front()->ckey;
  ExprPtr keys_predicate;  // ckey IN (SELECT ckey FROM __jb_keys)
  if (spec.join_back) {
    std::string keys_source = table;
    ExprPtr keys_where = spec.keys_condition;
    for (const CleansingRule* rule : rules) {
      if (rule->HasDerivedInput()) {
        // Conditions apply to both the reads table and the compensation
        // data (Section 6.3), so keys come from the derived input itself,
        // restricted inside each arm of its union.
        StatementPtr src = CloneStatement(rule->from_select);
        if (PushFilterIntoCores(src.get(), keys_where)) keys_where = nullptr;
        clauses.push_back({kKeysSourceName, std::move(src)});
        keys_source = kKeysSourceName;
        break;
      }
    }
    std::string body = "SELECT DISTINCT " + ckey + " FROM " + keys_source;
    if (keys_where != nullptr) body += " WHERE " + RenderExpr(keys_where);
    RFID_ASSIGN_OR_RETURN(WithClause keys, MakeWith(kKeysName, body));
    clauses.push_back(std::move(keys));
    RFID_ASSIGN_OR_RETURN(
        StatementPtr keys_query,
        ParseSql("SELECT " + ckey + " FROM " + std::string(kKeysName)));
    keys_predicate = MakeInSubquery(MakeColumnRef("", ckey), keys_query);
  }

  // Restricted input over the raw reads table; derived rule inputs get the
  // same restriction inside each arm of their union.
  const ExprPtr restriction =
      CombineConjuncts({keys_predicate, spec.input_condition});
  {
    std::string body = "SELECT * FROM " + table;
    if (restriction != nullptr) body += " WHERE " + RenderExpr(restriction);
    RFID_ASSIGN_OR_RETURN(WithClause input, MakeWith(kInputName, body));
    clauses.push_back(std::move(input));
  }

  RFID_ASSIGN_OR_RETURN(
      CleansingChain chain,
      BuildCleansingChain(rules, db, kInputName, base->schema().columns(),
                          restriction));
  for (const auto& [name, body] : chain.with_clauses) {
    RFID_ASSIGN_OR_RETURN(WithClause clause, MakeWith(name, body));
    clauses.push_back(std::move(clause));
  }

  // Re-target the user query at the cleansed output.
  StatementPtr rewritten = CloneStatement(
      std::make_shared<SelectStatement>(original));
  ReplaceTableRefs(rewritten.get(), table, chain.output_name);
  rewritten->with.insert(rewritten->with.begin(),
                         std::make_move_iterator(clauses.begin()),
                         std::make_move_iterator(clauses.end()));
  return StatementToSql(*rewritten);
}

}  // namespace rfid
