#include "rewrite/rewriter.h"

#include <algorithm>

#include "common/fault.h"
#include "common/string_util.h"
#include "expr/conjunct.h"
#include "expr/interval.h"
#include "plan/cost_model.h"
#include "plan/planner.h"
#include "rewrite/candidates.h"
#include "rewrite/transitivity.h"
#include "sql/parser.h"
#include "sql/render.h"
#include "verify/verify.h"

namespace rfid {

const char* RewriteStrategyName(RewriteStrategy s) {
  switch (s) {
    case RewriteStrategy::kAuto: return "auto";
    case RewriteStrategy::kExpanded: return "expanded";
    case RewriteStrategy::kJoinBack: return "join-back";
    case RewriteStrategy::kNaive: return "naive";
    case RewriteStrategy::kNone: return "none";
  }
  return "?";
}

namespace {

// Where the rules' table appears in the user query.
struct TargetSite {
  SelectCore* core = nullptr;
  std::string alias;
  int occurrences = 0;
};

void FindTable(SelectStatement* stmt, const std::string& table, TargetSite* site) {
  for (WithClause& w : stmt->with) {
    if (EqualsIgnoreCase(w.name, table)) return;  // shadowed; do not rewrite
    FindTable(w.body.get(), table, site);
  }
  for (SelectCore& core : stmt->cores) {
    for (TableRef& ref : core.from) {
      if (EqualsIgnoreCase(ref.table_name, table)) {
        ++site->occurrences;
        site->core = &core;
        site->alias = ref.alias;
      }
    }
  }
}

// An n:1 dimension join found in the target core.
struct DimJoin {
  std::string dim_alias;
  const Table* dim_table = nullptr;
  std::string reads_column;           // join column on the reads table
  std::string dim_column;             // join column on the dimension
  std::vector<ExprPtr> dim_conjuncts; // local predicates (dim-qualified)
  double selectivity = 1.0;

  // IN-subquery form of the join restriction, probe column unqualified.
  ExprPtr AsInConjunct() const {
    auto sub = std::make_shared<SelectStatement>();
    SelectCore core;
    core.items.push_back({MakeColumnRef("", dim_column), "", false});
    core.from.push_back({dim_table->name(), dim_table->name()});
    std::vector<ExprPtr> stripped;
    for (const ExprPtr& c : dim_conjuncts) {
      stripped.push_back(SubstituteQualifier(c, dim_alias, ""));
    }
    core.where = CombineConjuncts(stripped);
    sub->cores.push_back(std::move(core));
    return MakeInSubquery(MakeColumnRef("", reads_column), sub);
  }
};

// Query analysis relative to the reads table.
struct QueryAnalysis {
  std::vector<ExprPtr> s_local;   // reads-local conjuncts, unqualified
  std::vector<DimJoin> joins;     // ascending selectivity
};

QueryAnalysis AnalyzeCore(const SelectCore& core, const std::string& alias,
                          const Table* reads, const Database& db) {
  QueryAnalysis out;
  // Dimension sources in the same core.
  std::map<std::string, const Table*> dims;
  for (const TableRef& ref : core.from) {
    if (EqualsIgnoreCase(ref.alias, alias)) continue;
    const Table* t = db.GetTable(ref.table_name);
    if (t != nullptr) dims[ToLower(ref.alias)] = t;
  }
  std::map<std::string, DimJoin> joins;  // by dim alias
  std::map<std::string, std::vector<ExprPtr>> dim_locals;

  auto is_reads_ref = [&](const Expr& ref) {
    if (EqualsIgnoreCase(ref.qualifier, alias)) return true;
    return ref.qualifier.empty() && reads->schema().HasColumn(ref.column);
  };

  for (const ExprPtr& c : SplitConjuncts(core.where)) {
    std::vector<const Expr*> refs;
    CollectColumnRefs(c, &refs);
    bool all_reads = !refs.empty();
    for (const Expr* r : refs) {
      if (!is_reads_ref(*r)) all_reads = false;
    }
    if (all_reads) {
      out.s_local.push_back(SubstituteQualifier(c, alias, ""));
      continue;
    }
    // Equi-join reads.K = dim.K' ?
    if (c->kind == ExprKind::kBinary && c->op == BinaryOp::kEq &&
        c->children[0]->kind == ExprKind::kColumnRef &&
        c->children[1]->kind == ExprKind::kColumnRef) {
      const Expr* l = c->children[0].get();
      const Expr* r = c->children[1].get();
      const Expr* reads_side = nullptr;
      const Expr* dim_side = nullptr;
      if (is_reads_ref(*l) && dims.count(ToLower(r->qualifier))) {
        reads_side = l;
        dim_side = r;
      } else if (is_reads_ref(*r) && dims.count(ToLower(l->qualifier))) {
        reads_side = r;
        dim_side = l;
      }
      if (reads_side != nullptr) {
        DimJoin join;
        join.dim_alias = dim_side->qualifier;
        join.dim_table = dims[ToLower(dim_side->qualifier)];
        join.reads_column = reads_side->column;
        join.dim_column = dim_side->column;
        joins[ToLower(dim_side->qualifier)] = std::move(join);
        continue;
      }
    }
    // Dimension-local conjunct?
    bool single_dim = !refs.empty();
    std::string dim_alias;
    for (const Expr* r : refs) {
      if (dims.count(ToLower(r->qualifier)) == 0) {
        single_dim = false;
        break;
      }
      if (dim_alias.empty()) {
        dim_alias = ToLower(r->qualifier);
      } else if (dim_alias != ToLower(r->qualifier)) {
        single_dim = false;
        break;
      }
    }
    if (single_dim) dim_locals[dim_alias].push_back(c);
    // Anything else is left in place; it is simply not exploited.
  }

  for (auto& [alias_key, join] : joins) {
    auto it = dim_locals.find(alias_key);
    if (it != dim_locals.end()) {
      join.dim_conjuncts = it->second;
      std::vector<ExprPtr> stripped;
      for (const ExprPtr& c : join.dim_conjuncts) {
        stripped.push_back(SubstituteQualifier(c, join.dim_alias, ""));
      }
      join.selectivity = EstimateSelectivity(stripped, join.dim_table);
    }
    out.joins.push_back(std::move(join));
  }
  std::sort(out.joins.begin(), out.joins.end(),
            [](const DimJoin& a, const DimJoin& b) {
              return a.selectivity < b.selectivity;
            });
  return out;
}

// The sequence-key interval hull of the disjuncts of ec (the paper's
// "relaxed" expanded condition, Section 5.2 / Table 1). Returns nullptr
// when some disjunct is unbounded on both sides.
ExprPtr RelaxToSkeyInterval(const std::vector<ExprPtr>& disjuncts,
                            const std::string& skey) {
  ValueInterval hull;
  bool first = true;
  for (const ExprPtr& d : disjuncts) {
    ValueInterval iv;
    for (const ExprPtr& c : SplitConjuncts(d)) {
      ColumnLiteralCmp m;
      if (MatchColumnLiteralCmp(c, &m) &&
          EqualsIgnoreCase(m.column->column, skey) && m.op != BinaryOp::kNe) {
        iv.IntersectCmp(m.op, m.literal);
      }
    }
    if (first) {
      hull = iv;
      first = false;
    } else {
      hull.UnionHull(iv);
    }
  }
  if (hull.Unconstrained()) return nullptr;
  return hull.ToConjuncts(MakeColumnRef("", skey));
}

// Conjunct c1 implies c2 when both are comparisons on the same column and
// c1's interval is contained in c2's.
bool ConjunctImplies(const ExprPtr& c1, const ExprPtr& c2) {
  if (ExprEquals(c1, c2)) return true;
  ColumnLiteralCmp m1;
  ColumnLiteralCmp m2;
  if (!MatchColumnLiteralCmp(c1, &m1) || !MatchColumnLiteralCmp(c2, &m2)) {
    return false;
  }
  if (!EqualsIgnoreCase(m1.column->column, m2.column->column) ||
      !EqualsIgnoreCase(m1.column->qualifier, m2.column->qualifier)) {
    return false;
  }
  if (!TypesComparable(m1.literal.type(), m2.literal.type())) return false;
  ValueInterval i1;
  i1.IntersectCmp(m1.op, m1.literal);
  ValueInterval i2;
  i2.IntersectCmp(m2.op, m2.literal);
  return i2.Contains(i1);
}

// Drops disjuncts that are implied by (contained in) another disjunct: D2
// is redundant when every conjunct of some other D1 is implied by a
// conjunct of D2 (then rows(D2) ⊆ rows(D1)).
std::vector<ExprPtr> SimplifyDisjuncts(std::vector<ExprPtr> disjuncts) {
  std::vector<bool> dead(disjuncts.size(), false);
  for (size_t i = 0; i < disjuncts.size(); ++i) {
    if (dead[i]) continue;
    std::vector<ExprPtr> ci = SplitConjuncts(disjuncts[i]);
    for (size_t j = 0; j < disjuncts.size(); ++j) {
      if (i == j || dead[j] || dead[i]) continue;
      std::vector<ExprPtr> cj = SplitConjuncts(disjuncts[j]);
      bool covers = true;  // does D_i cover D_j (D_j redundant)?
      for (const ExprPtr& c1 : ci) {
        bool implied = false;
        for (const ExprPtr& c2 : cj) {
          if (ConjunctImplies(c2, c1)) {
            implied = true;
            break;
          }
        }
        if (!implied) {
          covers = false;
          break;
        }
      }
      if (covers) dead[j] = true;
    }
  }
  std::vector<ExprPtr> out;
  for (size_t i = 0; i < disjuncts.size(); ++i) {
    if (!dead[i]) out.push_back(disjuncts[i]);
  }
  return out;
}

// Rewrite invariant: every candidate statement must project the same
// schema as the user's original query — same column count, and per
// position the same name (case-insensitive) and type.
Status CheckProjectionPreserved(const RowDesc& original, const RowDesc& got,
                                const std::string& label) {
  const auto& want = original.fields();
  const auto& have = got.fields();
  if (want.size() != have.size()) {
    return Status::Internal(StrFormat(
        "verify[rewrite] op=%s: invariant=projection-schema: candidate "
        "projects %zu columns, original query projects %zu",
        label.c_str(), have.size(), want.size()));
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (!EqualsIgnoreCase(have[i].name, want[i].name) ||
        have[i].type != want[i].type) {
      return Status::Internal(StrFormat(
          "verify[rewrite] op=%s: invariant=projection-schema: output "
          "column %zu is %s '%s', original query has %s '%s'",
          label.c_str(), i, DataTypeName(have[i].type), have[i].name.c_str(),
          DataTypeName(want[i].type), want[i].name.c_str()));
    }
  }
  return Status::OK();
}

}  // namespace

Result<RewriteInfo> QueryRewriter::Rewrite(std::string_view sql,
                                           const RewriteOptions& options) const {
  RFID_FAULT_POINT("rewrite.Rewrite");
  RFID_ASSIGN_OR_RETURN(StatementPtr stmt, ParseSql(sql));

  // Find the (single) table with rules that the query reads.
  std::string table;
  TargetSite site;
  for (const CleansingRule& rule : engine_->rules()) {
    TargetSite probe;
    FindTable(stmt.get(), rule.on_table, &probe);
    if (probe.occurrences > 0) {
      if (!table.empty() && !EqualsIgnoreCase(table, rule.on_table)) {
        return Status::Unimplemented(
            "query reads several tables with cleansing rules");
      }
      table = rule.on_table;
      site = probe;
    }
  }
  RewriteInfo info;
  if (table.empty()) {
    info.sql = std::string(sql);
    info.chosen = RewriteStrategy::kNone;
    return info;
  }
  if (site.occurrences > 1) {
    return Status::Unimplemented(
        "query references the cleansed table more than once");
  }
  std::vector<const CleansingRule*> rules = engine_->RulesFor(table);
  RFID_ASSIGN_OR_RETURN(Table * reads, db_->ResolveTable(table));
  info.lint = LintRulesFor(engine_->rules(), table);

  QueryAnalysis analysis = AnalyzeCore(*site.core, site.alias, reads, *db_);

  // --- transitivity: per-rule context conditions ---
  std::vector<ExprPtr> query_conjuncts = analysis.s_local;
  for (const DimJoin& j : analysis.joins) {
    // A join with no dimension-local predicate restricts nothing; leaving
    // it out keeps the derived context conditions (and the candidate
    // statements) free of no-op IN-subqueries.
    if (!j.dim_conjuncts.empty()) {
      query_conjuncts.push_back(j.AsInConjunct());
    }
  }
  bool expanded_feasible = true;
  // Every rule's context disjuncts, flattened so SimplifyDisjuncts can drop
  // the ones that repeat (a lookup's `epc = X` is derived once per context
  // reference of every rule).
  std::vector<ExprPtr> cc_disjuncts;
  for (const CleansingRule* rule : rules) {
    RFID_ASSIGN_OR_RETURN(std::vector<Column> raw_cols,
                          RuleInputColumns(*rule, *db_));
    std::set<std::string> allowed;
    for (const Column& c : raw_cols) allowed.insert(ToLower(c.name));
    RuleContextInfo rule_info;
    rule_info.rule_name = rule->name;
    rule_info.feasible = true;
    ExprPtr rule_cc;
    for (const ContextCorrelation& corr : AnalyzeCorrelations(*rule)) {
      ContextDerivation d = DeriveContextCondition(corr, query_conjuncts,
                                                   rule->skey, allowed);
      if (d.condition == nullptr || !d.restrictive) {
        rule_info.feasible = false;
        rule_cc = nullptr;
        break;
      }
      rule_cc = (rule_cc == nullptr)
                    ? d.condition
                    : MakeBinary(BinaryOp::kOr, rule_cc, d.condition);
    }
    rule_info.context_condition = rule_cc;
    if (!rule_info.feasible) expanded_feasible = false;
    for (const ExprPtr& d : SplitDisjuncts(rule_cc)) cc_disjuncts.push_back(d);
    info.contexts.push_back(std::move(rule_info));
  }

  // --- expanded condition (s ∨ cc1 ∨ ... ∨ ccn) ---
  ExprPtr s_all = CombineConjuncts(analysis.s_local);
  if (expanded_feasible && s_all != nullptr) {
    std::vector<ExprPtr> disjuncts;
    disjuncts.push_back(s_all);
    disjuncts.insert(disjuncts.end(), cc_disjuncts.begin(), cc_disjuncts.end());
    disjuncts = SimplifyDisjuncts(std::move(disjuncts));
    info.expanded_condition = CombineDisjuncts(disjuncts);
    info.relaxed_condition = RelaxToSkeyInterval(disjuncts, rules.front()->skey);
  }

  // --- generate and cost candidates ---
  struct PendingCandidate {
    CandidateSpec spec;
  };
  std::vector<PendingCandidate> pending;

  pending.push_back({{"naive", RewriteStrategy::kNaive, nullptr, false, nullptr}});

  // Joins with real dimension predicates, ascending selectivity: these
  // are the restrictions worth pushing (the paper's D'_i / semi-joins).
  std::vector<const DimJoin*> pushable;
  for (const DimJoin& j : analysis.joins) {
    if (!j.dim_conjuncts.empty()) pushable.push_back(&j);
  }
  // For the expanded rewrite, the paper pushes a join before cleansing
  // only when its restriction was derived onto every context reference
  // (always true for joins on the cluster key). Aggressive pushdown
  // relaxes this: the restriction is applied to the query part of ec
  // only, which is still correct (contexts stay covered by the cc
  // disjuncts) but goes beyond the published algorithm.
  std::vector<const DimJoin*> expanded_pushable;
  for (const DimJoin* j : pushable) {
    bool derivable_everywhere = true;
    for (const CleansingRule* rule : rules) {
      for (const ContextCorrelation& corr : AnalyzeCorrelations(*rule)) {
        bool found = false;
        for (const auto& [xcol, tcol] : corr.equalities) {
          if (EqualsIgnoreCase(tcol, j->reads_column)) found = true;
        }
        if (!found) derivable_everywhere = false;
      }
    }
    if (derivable_everywhere || options.aggressive_join_pushdown) {
      expanded_pushable.push_back(j);
    }
  }

  if (expanded_feasible) {
    // k = number of dimension restrictions pushed into the query part of
    // ec, in ascending selectivity order (Section 5.2's m+1 statements).
    for (size_t k = 0; k <= expanded_pushable.size(); ++k) {
      std::vector<ExprPtr> s_part = analysis.s_local;
      for (size_t i = 0; i < k; ++i) {
        s_part.push_back(expanded_pushable[i]->AsInConjunct());
      }
      ExprPtr s_comb = CombineConjuncts(s_part);
      ExprPtr ec;
      if (s_comb != nullptr) {
        std::vector<ExprPtr> disjuncts;
        disjuncts.push_back(s_comb);
        disjuncts.insert(disjuncts.end(), cc_disjuncts.begin(),
                         cc_disjuncts.end());
        disjuncts = SimplifyDisjuncts(std::move(disjuncts));
        ec = CombineDisjuncts(disjuncts);
      }
      // A query with no restriction on the reads table makes ec trivially
      // TRUE (s ∨ cc = TRUE): the expanded rewrite degenerates to cleansing
      // the unrestricted input, i.e. the naive plan. ec = nullptr encodes
      // that (no WHERE on the input).
      pending.push_back({{StrFormat("expanded+%zu joins", k),
                          RewriteStrategy::kExpanded, ec, false, nullptr}});
    }
    if (info.relaxed_condition != nullptr) {
      pending.push_back({{"expanded relaxed", RewriteStrategy::kExpanded,
                          info.relaxed_condition, false, nullptr}});
    }
  }

  // Join-back: n+1 key-source variants (Section 5.3), each plain and —
  // when available — improved with the expanded condition on the input.
  for (size_t k = 0; k <= pushable.size(); ++k) {
    std::vector<ExprPtr> keys_part = analysis.s_local;
    for (size_t i = 0; i < k; ++i) {
      keys_part.push_back(pushable[i]->AsInConjunct());
    }
    ExprPtr keys_cond = CombineConjuncts(keys_part);
    pending.push_back({{StrFormat("join-back+%zu semijoins", k),
                        RewriteStrategy::kJoinBack, nullptr, true, keys_cond}});
    if (info.expanded_condition != nullptr) {
      pending.push_back({{StrFormat("join-back improved+%zu semijoins", k),
                          RewriteStrategy::kJoinBack, info.expanded_condition,
                          true, keys_cond}});
    }
  }

  // Under verification, plan the user's statement once and hold every
  // candidate's output schema to it (the projection-schema invariant).
  RowDesc original_desc;
  const bool check_schema = VerifyEnabled();
  if (check_schema) {
    RFID_ASSIGN_OR_RETURN(PlannedQuery original,
                          PlanSql(*db_, sql, options.exec_context));
    original_desc = original.root->output_desc();
  }

  for (const PendingCandidate& p : pending) {
    RFID_ASSIGN_OR_RETURN(std::string candidate_sql,
                          AssembleRewrite(*stmt, table, rules, *db_, p.spec));
    RFID_ASSIGN_OR_RETURN(
        PlannedQuery plan,
        PlanSql(*db_, candidate_sql, options.exec_context));
    if (check_schema) {
      RFID_RETURN_IF_ERROR(CheckProjectionPreserved(
          original_desc, plan.root->output_desc(), p.spec.label));
    }
    info.candidates.push_back({p.spec.label, p.spec.strategy,
                               std::move(candidate_sql), plan.estimated_cost});
  }

  // --- pick the winner ---
  const RewriteCandidate* best = nullptr;
  for (const RewriteCandidate& c : info.candidates) {
    bool eligible = false;
    switch (options.strategy) {
      case RewriteStrategy::kAuto:
        eligible = c.strategy == RewriteStrategy::kExpanded ||
                   c.strategy == RewriteStrategy::kJoinBack;
        break;
      case RewriteStrategy::kNaive:
        eligible = c.strategy == RewriteStrategy::kNaive;
        break;
      case RewriteStrategy::kExpanded:
        eligible = c.strategy == RewriteStrategy::kExpanded;
        break;
      case RewriteStrategy::kJoinBack:
        eligible = c.strategy == RewriteStrategy::kJoinBack;
        break;
      case RewriteStrategy::kNone:
        break;
    }
    if (!eligible) continue;
    if (best == nullptr || c.estimated_cost < best->estimated_cost) best = &c;
  }
  if (best == nullptr) {
    if (options.strategy == RewriteStrategy::kExpanded) {
      return Status::RewriteInfeasible(
          "no expanded rewrite exists for this query/rule combination");
    }
    return Status::Internal("no rewrite candidate produced");
  }
  info.sql = best->sql;
  info.chosen = best->strategy;
  info.estimated_cost = best->estimated_cost;
  return info;
}

}  // namespace rfid
