#include "plan/planner.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_set>

#include "common/fault.h"
#include "common/simd.h"
#include "common/string_util.h"
#include "exec/aggregate.h"
#include "exec/filter_project.h"
#include "exec/fragment.h"
#include "exec/hash_join.h"
#include "exec/parallel.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "exec/union_all.h"
#include "exec/window.h"
#include "expr/conjunct.h"
#include "expr/interval.h"
#include "plan/cost_model.h"
#include "sql/parser.h"
#include "verify/plan_verifier.h"
#include "verify/verify.h"

namespace rfid {

namespace {

// An operator subtree plus planner bookkeeping.
struct PlanNode {
  OperatorPtr op;
  double rows = 0;
  double cost = 0;
  std::vector<SlotSortKey> ordering;  // guaranteed output order
  const Table* base_table = nullptr;  // for (filtered) base scans
};

// True if `current` ordering satisfies `required` as a prefix.
bool OrderingSatisfies(const std::vector<SlotSortKey>& current,
                       const std::vector<SlotSortKey>& required) {
  if (required.size() > current.size()) return false;
  for (size_t i = 0; i < required.size(); ++i) {
    if (current[i].slot != required[i].slot ||
        current[i].ascending != required[i].ascending) {
      return false;
    }
  }
  return true;
}

// Replaces nodes by pointer identity (used to swap window/aggregate calls
// for references to their computed columns).
ExprPtr ReplaceNodes(const ExprPtr& e,
                     const std::map<const Expr*, ExprPtr>& replacements) {
  if (e == nullptr) return nullptr;
  auto it = replacements.find(e.get());
  if (it != replacements.end()) return it->second;
  auto copy = std::make_shared<Expr>(*e);
  bool changed = false;
  for (auto& child : copy->children) {
    ExprPtr nc = ReplaceNodes(child, replacements);
    if (nc != child) changed = true;
    child = nc;
  }
  return changed ? copy : e;
}

// Collects window-function call nodes in evaluation order.
void CollectWindowCalls(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kFuncCall && e->window.has_value()) {
    out->push_back(e);
    return;  // nested window calls are not supported
  }
  for (const auto& c : e->children) CollectWindowCalls(c, out);
}

// Collects plain aggregate call nodes.
void CollectAggCalls(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kFuncCall && !e->window.has_value()) {
    const std::string& f = e->func_name;
    if (f == "count" || f == "sum" || f == "avg" || f == "min" || f == "max") {
      out->push_back(e);
      return;
    }
  }
  for (const auto& c : e->children) CollectAggCalls(c, out);
}

bool WindowSpecsCompatible(const WindowSpec& a, const WindowSpec& b) {
  if (a.partition_by.size() != b.partition_by.size() ||
      a.order_by.size() != b.order_by.size()) {
    return false;
  }
  for (size_t i = 0; i < a.partition_by.size(); ++i) {
    if (!ExprEquals(a.partition_by[i], b.partition_by[i])) return false;
  }
  for (size_t i = 0; i < a.order_by.size(); ++i) {
    if (!ExprEquals(a.order_by[i].expr, b.order_by[i].expr) ||
        a.order_by[i].ascending != b.order_by[i].ascending) {
      return false;
    }
  }
  return true;
}

DataType AggResultType(AggFunc func, DataType arg_type) {
  switch (func) {
    case AggFunc::kCount:
      return DataType::kInt64;
    case AggFunc::kMin:
    case AggFunc::kMax:
      return arg_type;
    case AggFunc::kSum:
      return arg_type == DataType::kDouble || arg_type == DataType::kInterval
                 ? arg_type
                 : DataType::kInt64;
    case AggFunc::kAvg:
      return arg_type == DataType::kInterval ? DataType::kInterval
                                             : DataType::kDouble;
  }
  return DataType::kNull;
}

bool IsAggName(const std::string& f) {
  return f == "count" || f == "sum" || f == "avg" || f == "min" || f == "max";
}

class PlannerImpl {
 public:
  explicit PlannerImpl(const Database* db, ExecContext* ctx)
      : db_(db), ctx_(ctx) {}

  // The epoch snapshot pinned on the execution context, if any: planning
  // under a snapshot must use its watermark (cardinality), its pinned
  // indexes (access-path choice), and its statistics version
  // (selectivity) so the plan matches what execution will see.
  const TableSnapshot* SnapshotFor(const Table* table) const {
    if (ctx_ == nullptr || table == nullptr) return nullptr;
    const SnapshotPtr& snap = ctx_->snapshot();
    return snap == nullptr ? nullptr : snap->ForTable(table);
  }

  StatsView ViewFor(const Table* table) const {
    if (const TableSnapshot* ts = SnapshotFor(table)) return ts->stats_view();
    return table != nullptr ? table->CurrentStatsView() : StatsView{};
  }

  // Phase-boundary invariant check (no-op unless verification is on).
  // Partial trees are fine: every phase leaves a well-formed subtree.
  Status Verify(const Operator& op, const char* phase) const {
    if (!VerifyEnabled()) return Status::OK();
    return VerifyPlan(op, phase, ctx_);
  }

  // `scope` holds enclosing WITH clauses, innermost last.
  Result<PlanNode> PlanStatement(const SelectStatement& stmt,
                                 std::vector<const WithClause*> scope) {
    for (const WithClause& w : stmt.with) {
      scope.push_back(&w);
    }
    std::vector<PlanNode> cores;
    cores.reserve(stmt.cores.size());
    for (const SelectCore& core : stmt.cores) {
      RFID_ASSIGN_OR_RETURN(PlanNode node, PlanCore(core, scope));
      cores.push_back(std::move(node));
    }
    PlanNode result;
    if (cores.size() == 1) {
      result = std::move(cores[0]);
    } else {
      size_t arity = cores[0].op->output_desc().num_fields();
      double rows = 0;
      double cost = 0;
      std::vector<OperatorPtr> inputs;
      for (PlanNode& n : cores) {
        if (n.op->output_desc().num_fields() != arity) {
          return Status::BindError("UNION ALL inputs have different arity");
        }
        rows += n.rows;
        cost += n.cost;
        inputs.push_back(std::move(n.op));
      }
      result.op = std::make_unique<UnionAllOp>(std::move(inputs));
      result.rows = rows;
      result.cost = cost;
    }
    if (stmt.limit >= 0) {
      // LIMIT is applied after ORDER BY (below) when one exists.
    }
    if (!stmt.order_by.empty()) {
      std::vector<SlotSortKey> keys;
      for (const SortKey& k : stmt.order_by) {
        RFID_ASSIGN_OR_RETURN(ExprPtr bound,
                              BindExpr(k.expr, result.op->output_desc()));
        if (bound->kind != ExprKind::kColumnRef) {
          return Status::Unimplemented("ORDER BY requires plain columns");
        }
        keys.push_back({static_cast<size_t>(bound->slot), k.ascending});
      }
      result.cost += SortCost(result.rows);
      result.op = std::make_unique<SortOp>(std::move(result.op), keys);
      result.ordering = keys;
    }
    if (stmt.limit >= 0) {
      std::vector<SlotSortKey> ordering = result.ordering;
      result.op = std::make_unique<LimitOp>(std::move(result.op), stmt.limit);
      result.rows = std::min(result.rows, static_cast<double>(stmt.limit));
      result.ordering = std::move(ordering);
    }
    return result;
  }

 private:
  struct Source {
    TableRef ref;
    const Table* table = nullptr;  // null for CTE-backed sources
    const WithClause* cte = nullptr;
    RowDesc desc;                       // fields qualified with the alias
    std::vector<ExprPtr> local_conjuncts;
    std::vector<const WithClause*> cte_scope;  // scope for planning the CTE
    PlanNode node;                      // built lazily
    bool built = false;
    bool joined = false;
  };

  struct JoinEdge {
    size_t left_source;
    std::string left_column;
    size_t right_source;
    std::string right_column;
    bool used = false;
  };

  struct SemiJoin {
    size_t source;
    std::string column;
    const SelectStatement* subquery;
  };

  /// Plans a fragment-bound source: a direct scan over the cached rows,
  /// or — on a cache miss — the binding's fill statement wrapped in a
  /// materializing tee that publishes the completed fragment.
  Result<PlanNode> PlanFragment(const TableRef& ref,
                                const FragmentBinding& fb) {
    RowDesc desc;  // the binding's fields, requalified with the alias
    for (const Field& f : fb.desc.fields()) {
      desc.AddField(ref.alias, f.name, f.type);
    }
    PlanNode node;
    if (fb.rows != nullptr) {
      node.rows = static_cast<double>(fb.rows->size());
      node.cost = node.rows * kSeqRowCost;
      node.op = std::make_unique<FragmentScanOp>(std::move(desc),
                                                 ref.table_name, fb.rows);
      return node;
    }
    RFID_ASSIGN_OR_RETURN(StatementPtr fill, ParseSql(fb.fill_sql));
    RFID_ASSIGN_OR_RETURN(PlanNode sub, PlanStatement(*fill, {}));
    node.rows = sub.rows;
    node.cost = sub.cost + sub.rows * kSeqRowCost;
    node.ordering = sub.ordering;
    node.op = std::make_unique<FragmentMaterializeOp>(
        std::move(desc), ref.table_name, std::move(sub.op), fb.on_filled);
    return node;
  }

  Result<PlanNode> PlanCore(const SelectCore& core,
                            const std::vector<const WithClause*>& scope) {
    if (core.from.empty()) {
      return Status::Unimplemented("SELECT without FROM");
    }
    // --- resolve sources ---
    std::vector<Source> sources;
    for (const TableRef& ref : core.from) {
      Source s;
      s.ref = ref;
      // Innermost WITH clause wins; a clause may only refer to earlier ones.
      const WithClause* cte = nullptr;
      std::vector<const WithClause*> cte_scope;
      for (size_t i = scope.size(); i > 0; --i) {
        if (EqualsIgnoreCase(scope[i - 1]->name, ref.table_name)) {
          cte = scope[i - 1];
          cte_scope.assign(scope.begin(), scope.begin() + (i - 1));
          break;
        }
      }
      if (cte != nullptr) {
        s.cte = cte;
        s.cte_scope = std::move(cte_scope);
        // Descriptor comes from planning once; to avoid planning twice we
        // plan now and keep the node.
        RFID_ASSIGN_OR_RETURN(PlanNode sub,
                              PlanStatement(*cte->body, s.cte_scope));
        sub.cost += 0;  // materialization is free in this engine
        sub.op = std::make_unique<RenameOp>(std::move(sub.op), ref.alias);
        s.desc = sub.op->output_desc();
        s.node = std::move(sub);
        s.built = true;
      } else {
        const Table* table = db_->GetTable(ref.table_name);
        if (table == nullptr) {
          // Fragment bindings (cleansed-fragment cache) resolve names that
          // match neither a CTE nor a catalog table.
          const FragmentBinding* fb =
              ctx_ == nullptr ? nullptr : ctx_->FindFragment(ref.table_name);
          if (fb == nullptr) {
            return Status::NotFound("table not found: " + ref.table_name);
          }
          RFID_ASSIGN_OR_RETURN(PlanNode sub, PlanFragment(ref, *fb));
          s.desc = sub.op->output_desc();
          s.node = std::move(sub);
          s.built = true;
        } else {
          s.table = table;
          s.desc = RowDesc::FromSchema(table->schema(), ref.alias);
        }
      }
      sources.push_back(std::move(s));
    }
    // Reject duplicate aliases.
    for (size_t i = 0; i < sources.size(); ++i) {
      for (size_t j = i + 1; j < sources.size(); ++j) {
        if (EqualsIgnoreCase(sources[i].ref.alias, sources[j].ref.alias)) {
          return Status::BindError("duplicate table alias: " +
                                   sources[i].ref.alias);
        }
      }
    }

    // --- qualify and classify WHERE conjuncts ---
    std::vector<JoinEdge> edges;
    std::vector<SemiJoin> semis;
    std::vector<ExprPtr> residual;
    for (const ExprPtr& raw : SplitConjuncts(core.where)) {
      RFID_ASSIGN_OR_RETURN(ExprPtr c, QualifyExpr(raw, sources));
      c = FoldConstants(c);
      if (c->kind == ExprKind::kInSubquery) {
        const ExprPtr& probe = c->children[0];
        if (probe->kind != ExprKind::kColumnRef) {
          return Status::Unimplemented(
              "IN (SELECT ...) requires a plain column probe");
        }
        RFID_ASSIGN_OR_RETURN(size_t src, SourceIndex(sources, probe->qualifier));
        semis.push_back({src, probe->column, c->subquery.get()});
        continue;
      }
      // Equi-join between two different sources?
      if (c->kind == ExprKind::kBinary && c->op == BinaryOp::kEq &&
          c->children[0]->kind == ExprKind::kColumnRef &&
          c->children[1]->kind == ExprKind::kColumnRef &&
          !EqualsIgnoreCase(c->children[0]->qualifier,
                            c->children[1]->qualifier)) {
        RFID_ASSIGN_OR_RETURN(size_t l,
                              SourceIndex(sources, c->children[0]->qualifier));
        RFID_ASSIGN_OR_RETURN(size_t r,
                              SourceIndex(sources, c->children[1]->qualifier));
        edges.push_back(
            {l, c->children[0]->column, r, c->children[1]->column, false});
        continue;
      }
      std::set<std::string> quals = ReferencedQualifiers(c);
      if (quals.size() == 1) {
        RFID_ASSIGN_OR_RETURN(size_t src, SourceIndex(sources, *quals.begin()));
        sources[src].local_conjuncts.push_back(c);
        continue;
      }
      if (quals.empty()) {
        // Constant predicate; evaluate per row on the first source.
        sources[0].local_conjuncts.push_back(c);
        continue;
      }
      residual.push_back(c);
    }

    // --- build source access paths ---
    for (Source& s : sources) {
      double sub_cost = 0;
      for (ExprPtr& c : s.local_conjuncts) {
        RFID_ASSIGN_OR_RETURN(c, MaterializeSubqueries(c, scope, &sub_cost));
      }
      s.node.cost += sub_cost;  // no-op for unbuilt sources (cost added below)
      if (!s.built) {
        RFID_ASSIGN_OR_RETURN(s.node, BuildBaseAccess(s));
        s.built = true;
      } else if (!s.local_conjuncts.empty()) {
        // Local predicates over a CTE output: plain filter.
        RFID_ASSIGN_OR_RETURN(
            ExprPtr pred,
            BindExpr(CombineConjuncts(s.local_conjuncts), s.node.op->output_desc()));
        double sel = EstimateSelectivity(s.local_conjuncts, nullptr);
        s.node.cost += s.node.rows * kFilterEvalCost *
                       static_cast<double>(s.local_conjuncts.size());
        s.node.rows *= sel;
        std::vector<SlotSortKey> ordering = s.node.ordering;
        s.node.op = std::make_unique<FilterOp>(std::move(s.node.op), pred);
        s.node.ordering = std::move(ordering);
      }
      // Predicate pushdown, index selection and scan DOP assignment are
      // settled for this source: check the access path.
      RFID_RETURN_IF_ERROR(Verify(*s.node.op, "access-path"));
    }

    // --- apply semi-joins (IN subqueries) ---
    for (const SemiJoin& sj : semis) {
      Source& s = sources[sj.source];
      RFID_ASSIGN_OR_RETURN(PlanNode sub, PlanStatement(*sj.subquery, scope));
      if (sub.op->output_desc().num_fields() != 1) {
        return Status::BindError("IN subquery must produce exactly one column");
      }
      RFID_ASSIGN_OR_RETURN(size_t probe_slot,
                            s.node.op->output_desc().Resolve(s.ref.alias, sj.column));
      double probe_ndv =
          ColumnNdv(ViewFor(s.table), sj.column, std::max(1.0, s.node.rows));
      double sel = std::min(1.0, sub.rows / std::max(1.0, probe_ndv));
      double out_rows = s.node.rows * sel;
      double cost = s.node.cost + sub.cost + sub.rows * kHashBuildRowCost +
                    s.node.rows * kHashProbeRowCost;
      std::vector<SlotSortKey> ordering = s.node.ordering;
      s.node.op = std::make_unique<HashJoinOp>(
          std::move(s.node.op), std::move(sub.op), std::vector<size_t>{probe_slot},
          std::vector<size_t>{0}, JoinType::kLeftSemi);
      s.node.rows = out_rows;
      s.node.cost = cost;
      s.node.ordering = std::move(ordering);
    }

    // --- join ordering (greedy, fact-as-probe) ---
    size_t fact = 0;
    for (size_t i = 1; i < sources.size(); ++i) {
      if (sources[i].node.rows > sources[fact].node.rows) fact = i;
    }
    PlanNode tree = std::move(sources[fact].node);
    sources[fact].joined = true;
    // Current composite descriptor starts as the fact's.
    size_t joined_count = 1;
    while (joined_count < sources.size()) {
      // Candidate edges: one side joined, other not.
      int best_edge = -1;
      double best_rows = 0;
      for (size_t e = 0; e < edges.size(); ++e) {
        if (edges[e].used) continue;
        const JoinEdge& edge = edges[e];
        bool l_in = sources[edge.left_source].joined;
        bool r_in = sources[edge.right_source].joined;
        if (l_in == r_in) continue;
        size_t build_idx = l_in ? edge.right_source : edge.left_source;
        double build_rows = sources[build_idx].node.rows;
        if (best_edge < 0 || build_rows < best_rows) {
          best_edge = static_cast<int>(e);
          best_rows = build_rows;
        }
      }
      if (best_edge < 0) {
        return Status::Unimplemented(
            "query requires a cross product between FROM tables");
      }
      JoinEdge& edge = edges[static_cast<size_t>(best_edge)];
      edge.used = true;
      bool left_joined = sources[edge.left_source].joined;
      size_t build_idx = left_joined ? edge.right_source : edge.left_source;
      const std::string& probe_col =
          left_joined ? edge.left_column : edge.right_column;
      const std::string& build_col =
          left_joined ? edge.right_column : edge.left_column;
      const std::string& probe_alias =
          sources[left_joined ? edge.left_source : edge.right_source].ref.alias;
      Source& build = sources[build_idx];

      RFID_ASSIGN_OR_RETURN(size_t probe_slot,
                            tree.op->output_desc().Resolve(probe_alias, probe_col));
      RFID_ASSIGN_OR_RETURN(
          size_t build_slot,
          build.node.op->output_desc().Resolve(build.ref.alias, build_col));
      double build_key_ndv =
          ColumnNdv(ViewFor(build.table), build_col,
                    std::max(1.0, build.node.rows));
      double out_rows =
          tree.rows * build.node.rows / std::max(1.0, build_key_ndv);
      double cost = tree.cost + build.node.cost +
                    build.node.rows * kHashBuildRowCost +
                    tree.rows * kHashProbeRowCost +
                    out_rows * kJoinOutputRowCost;
      std::vector<SlotSortKey> ordering = tree.ordering;  // probe order kept
      tree.op = std::make_unique<HashJoinOp>(
          std::move(tree.op), std::move(build.node.op),
          std::vector<size_t>{probe_slot}, std::vector<size_t>{build_slot},
          JoinType::kInner);
      tree.rows = out_rows;
      tree.cost = cost;
      tree.ordering = std::move(ordering);
      build.joined = true;
      ++joined_count;
    }
    // Remaining edges between already-joined sources become filters.
    for (JoinEdge& edge : edges) {
      if (edge.used) continue;
      edge.used = true;
      ExprPtr c = MakeBinary(
          BinaryOp::kEq,
          MakeColumnRef(sources[edge.left_source].ref.alias, edge.left_column),
          MakeColumnRef(sources[edge.right_source].ref.alias, edge.right_column));
      residual.push_back(std::move(c));
    }
    if (!residual.empty()) {
      double sub_cost = 0;
      for (ExprPtr& c : residual) {
        RFID_ASSIGN_OR_RETURN(c, MaterializeSubqueries(c, scope, &sub_cost));
      }
      tree.cost += sub_cost;
      RFID_ASSIGN_OR_RETURN(ExprPtr pred,
                            BindExpr(CombineConjuncts(residual), tree.op->output_desc()));
      tree.cost += tree.rows * kFilterEvalCost *
                   static_cast<double>(residual.size());
      tree.rows *= EstimateSelectivity(residual, nullptr);
      std::vector<SlotSortKey> ordering = tree.ordering;
      tree.op = std::make_unique<FilterOp>(std::move(tree.op), pred);
      tree.ordering = std::move(ordering);
    }
    RFID_RETURN_IF_ERROR(Verify(*tree.op, "join-order"));

    // --- window functions ---
    // Output names are fixed now, before window/aggregate extraction
    // rewrites the item expressions into internal __w/__g/__a references.
    std::vector<SelectItem> items;
    std::vector<std::string> output_names;
    for (size_t i = 0; i < core.items.size(); ++i) {
      const SelectItem& item = core.items[i];
      if (item.is_star) {
        items.push_back(item);
        output_names.emplace_back();
        continue;
      }
      std::string name = item.alias;
      if (name.empty()) {
        if (item.expr->kind == ExprKind::kColumnRef) {
          name = item.expr->column;
        } else if (item.expr->kind == ExprKind::kFuncCall) {
          name = item.expr->func_name;  // e.g. "count", "avg"
        } else {
          name = StrFormat("col%zu", i);
        }
      }
      output_names.push_back(std::move(name));
      RFID_ASSIGN_OR_RETURN(ExprPtr q, QualifyExpr(item.expr, sources));
      items.push_back({q, item.alias, false});
    }
    RFID_RETURN_IF_ERROR(PlanWindows(&tree, &items));
    RFID_RETURN_IF_ERROR(Verify(*tree.op, "window"));

    // --- grouping / aggregation (with HAVING) ---
    bool has_aggregate = !core.group_by.empty() || core.having != nullptr;
    for (const SelectItem& item : items) {
      if (!item.is_star && ContainsAggregate(item.expr)) has_aggregate = true;
    }
    if (core.having != nullptr && !has_aggregate) {
      return Status::BindError("HAVING requires GROUP BY or aggregates");
    }
    if (has_aggregate) {
      std::vector<ExprPtr> group_exprs;
      for (const ExprPtr& g : core.group_by) {
        RFID_ASSIGN_OR_RETURN(ExprPtr q, QualifyExpr(g, sources));
        group_exprs.push_back(q);
      }
      // HAVING rides through aggregation as a hidden item so its group
      // references and aggregate calls are rewritten like the real ones.
      bool has_having = core.having != nullptr;
      if (has_having) {
        if (ContainsWindowCall(core.having)) {
          return Status::BindError("window functions are not allowed in HAVING");
        }
        RFID_ASSIGN_OR_RETURN(ExprPtr q, QualifyExpr(core.having, sources));
        items.push_back({q, "__having", false});
      }
      RFID_RETURN_IF_ERROR(PlanAggregate(&tree, group_exprs, &items));
      if (has_having) {
        ExprPtr having_expr = items.back().expr;
        items.pop_back();
        RFID_ASSIGN_OR_RETURN(ExprPtr bound,
                              BindExpr(having_expr, tree.op->output_desc()));
        tree.cost += tree.rows * kFilterEvalCost;
        tree.rows = std::max(1.0, tree.rows * kDefaultSelectivity);
        tree.op = std::make_unique<FilterOp>(std::move(tree.op), bound);
      }
    }

    // --- final projection ---
    bool all_star = true;
    for (const SelectItem& item : items) {
      if (!item.is_star) all_star = false;
    }
    if (all_star) {
      if (items.size() != 1) {
        return Status::Unimplemented("multiple * items");
      }
    } else {
      std::vector<ExprPtr> exprs;
      RowDesc out_desc;
      for (size_t i = 0; i < items.size(); ++i) {
        const SelectItem& item = items[i];
        if (item.is_star) {
          return Status::Unimplemented("mixing * with expressions");
        }
        RFID_ASSIGN_OR_RETURN(ExprPtr bound,
                              BindExpr(item.expr, tree.op->output_desc()));
        out_desc.AddField("", output_names[i], bound->result_type);
        exprs.push_back(std::move(bound));
      }
      // Remap ordering through bare-column projections.
      std::vector<SlotSortKey> new_ordering;
      for (const SlotSortKey& key : tree.ordering) {
        bool found = false;
        for (size_t i = 0; i < exprs.size(); ++i) {
          if (exprs[i]->kind == ExprKind::kColumnRef &&
              static_cast<size_t>(exprs[i]->slot) == key.slot) {
            new_ordering.push_back({i, key.ascending});
            found = true;
            break;
          }
        }
        if (!found) break;
      }
      tree.cost += tree.rows * kProjectExprRowCost *
                   static_cast<double>(exprs.size());
      tree.op = std::make_unique<ProjectOp>(std::move(tree.op), std::move(exprs),
                                            std::move(out_desc));
      tree.ordering = std::move(new_ordering);
    }

    if (core.distinct) {
      tree.cost += tree.rows;
      tree.rows = std::max(1.0, tree.rows * 0.9);
      std::vector<SlotSortKey> ordering = tree.ordering;
      tree.op = std::make_unique<DistinctOp>(std::move(tree.op));
      tree.ordering = std::move(ordering);  // first-seen emission keeps order
    }
    RFID_RETURN_IF_ERROR(Verify(*tree.op, "projection"));
    return tree;
  }

  // Replaces IN (SELECT ...) nodes that survive into scalar predicate
  // position (e.g. under an OR, as the rewrite engine's expanded
  // conditions produce) with a materialized hash set: the subquery is
  // planned and executed once at plan time. `extra_cost` accumulates the
  // subquery cost.
  Result<ExprPtr> MaterializeSubqueries(
      const ExprPtr& e, const std::vector<const WithClause*>& scope,
      double* extra_cost) {
    if (e == nullptr) return e;
    if (e->kind == ExprKind::kInSubquery) {
      RFID_ASSIGN_OR_RETURN(PlanNode sub, PlanStatement(*e->subquery, scope));
      if (sub.op->output_desc().num_fields() != 1) {
        return Status::BindError("IN subquery must produce exactly one column");
      }
      *extra_cost += sub.cost;
      RFID_ASSIGN_OR_RETURN(std::vector<Row> rows,
                            CollectRows(sub.op.get(), ctx_));
      auto set = std::make_shared<std::unordered_set<Value, ValueHash>>();
      bool has_null = false;
      for (const Row& r : rows) {
        if (r[0].is_null()) {
          has_null = true;
        } else {
          set->insert(r[0]);
        }
      }
      auto node = std::make_shared<Expr>();
      node->kind = ExprKind::kInValueSet;
      node->children.push_back(e->children[0]);
      node->value_set = std::move(set);
      node->value_set_has_null = has_null;
      return node;
    }
    auto copy = std::make_shared<Expr>(*e);
    for (auto& child : copy->children) {
      RFID_ASSIGN_OR_RETURN(child, MaterializeSubqueries(child, scope, extra_cost));
    }
    return copy;
  }

  // Fully qualifies column references against the FROM sources.
  Result<ExprPtr> QualifyExpr(const ExprPtr& e,
                              const std::vector<Source>& sources) {
    if (e == nullptr) return Status::Internal("null expression");
    if (e->kind == ExprKind::kColumnRef) {
      int found = -1;
      for (size_t i = 0; i < sources.size(); ++i) {
        const Source& s = sources[i];
        if (!e->qualifier.empty() &&
            !EqualsIgnoreCase(s.ref.alias, e->qualifier)) {
          continue;
        }
        bool has = false;
        for (const Field& f : s.desc.fields()) {
          if (EqualsIgnoreCase(f.name, e->column)) {
            has = true;
            break;
          }
        }
        if (!has) continue;
        if (found >= 0) {
          return Status::BindError("ambiguous column: " + e->column);
        }
        found = static_cast<int>(i);
      }
      if (found < 0) {
        return Status::BindError(StrFormat(
            "unresolved column %s%s%s", e->qualifier.c_str(),
            e->qualifier.empty() ? "" : ".", e->column.c_str()));
      }
      return MakeColumnRef(sources[static_cast<size_t>(found)].ref.alias,
                           e->column);
    }
    auto copy = std::make_shared<Expr>(*e);
    for (auto& child : copy->children) {
      RFID_ASSIGN_OR_RETURN(child, QualifyExpr(child, sources));
    }
    if (copy->window.has_value()) {
      for (auto& p : copy->window->partition_by) {
        RFID_ASSIGN_OR_RETURN(p, QualifyExpr(p, sources));
      }
      for (auto& k : copy->window->order_by) {
        RFID_ASSIGN_OR_RETURN(k.expr, QualifyExpr(k.expr, sources));
      }
    }
    return copy;
  }

  Result<size_t> SourceIndex(const std::vector<Source>& sources,
                             std::string_view alias) {
    for (size_t i = 0; i < sources.size(); ++i) {
      if (EqualsIgnoreCase(sources[i].ref.alias, alias)) return i;
    }
    return Status::BindError("unknown table alias: " + std::string(alias));
  }

  // Chooses between full scan and index range scan for a base table given
  // its local conjuncts.
  Result<PlanNode> BuildBaseAccess(Source& s) {
    const Table* table = s.table;
    const TableSnapshot* snap = SnapshotFor(table);
    const StatsView view = ViewFor(table);
    double total_rows = snap != nullptr
                            ? static_cast<double>(snap->watermark)
                            : static_cast<double>(table->visible_rows());
    // Try every indexed column: build the value interval its sargable
    // conjuncts imply, estimate selectivity, keep the best.
    const SortedIndex* best_index = nullptr;
    double best_sel = 1.0;
    ValueInterval best_interval;
    std::vector<size_t> best_absorbed;
    for (const Column& col : table->schema().columns()) {
      const SortedIndex* idx = snap != nullptr ? snap->FindIndex(col.name)
                                               : table->GetIndex(col.name);
      if (idx == nullptr) continue;
      ValueInterval interval;
      std::vector<size_t> absorbed;
      for (size_t ci = 0; ci < s.local_conjuncts.size(); ++ci) {
        ColumnLiteralCmp m;
        if (!MatchColumnLiteralCmp(s.local_conjuncts[ci], &m)) continue;
        if (!EqualsIgnoreCase(m.column->column, col.name)) continue;
        if (m.op == BinaryOp::kNe) continue;
        if (!TypesComparable(m.literal.type(), col.type)) continue;
        interval.IntersectCmp(m.op, m.literal);
        absorbed.push_back(ci);
      }
      if (interval.Unconstrained()) continue;
      ExprPtr as_conj = interval.ToConjuncts(MakeColumnRef(s.ref.alias, col.name));
      double sel = EstimateConjunctSelectivity(as_conj, view);
      if (best_index == nullptr || sel < best_sel) {
        best_index = idx;
        best_sel = sel;
        best_interval = interval;
        best_absorbed = absorbed;
      }
    }
    PlanNode node;
    node.base_table = table;
    std::vector<ExprPtr> remaining;
    // Index scan wins when the per-row random-access penalty is offset by
    // touching fewer rows: sel * kIndexRowCost < kSeqRowCost, i.e. sel < 0.4.
    // We allow up to 0.7 because index output order frequently saves a
    // sort downstream (partially time-clustered loads, as in the paper).
    if (best_index != nullptr && best_sel < 0.7) {
      std::optional<Bound> lo;
      std::optional<Bound> hi;
      if (best_interval.lo()) {
        lo = Bound{best_interval.lo()->value, best_interval.lo()->inclusive};
      }
      if (best_interval.hi()) {
        hi = Bound{best_interval.hi()->value, best_interval.hi()->inclusive};
      }
      node.op = std::make_unique<IndexRangeScanOp>(table, best_index,
                                                   s.ref.alias, lo, hi);
      node.rows = total_rows * best_sel;
      node.cost = node.rows * kIndexRowCost;
      RFID_ASSIGN_OR_RETURN(
          size_t slot, node.op->output_desc().Resolve(
                           s.ref.alias, best_index->column_name()));
      node.ordering = {{slot, true}};
      for (size_t ci = 0; ci < s.local_conjuncts.size(); ++ci) {
        if (std::find(best_absorbed.begin(), best_absorbed.end(), ci) ==
            best_absorbed.end()) {
          remaining.push_back(s.local_conjuncts[ci]);
        }
      }
    } else {
      // Full scan: morsel-parallel when the table clears the row
      // threshold. Local predicates fuse into the scan either way —
      // parallel so the filter work spreads across workers, serial so
      // the encoded columnar kernels and zone-map segment skipping can
      // evaluate them before any row materializes. The cost model is
      // identical to the scan-then-filter pair (same rows touched, same
      // per-conjunct charge), so join ordering is unaffected.
      int dop = ChooseDop(total_rows);
      if (dop > 1) {
        double sel = EstimateSelectivity(s.local_conjuncts, view);
        ExprPtr pred;
        if (!s.local_conjuncts.empty()) {
          RFID_ASSIGN_OR_RETURN(
              pred, BindExpr(CombineConjuncts(s.local_conjuncts), s.desc));
        }
        node.op = std::make_unique<ParallelTableScanOp>(table, s.ref.alias,
                                                        std::move(pred), dop);
        node.rows = total_rows * sel;
        node.cost = (total_rows * kSeqRowCost +
                     total_rows * kFilterEvalCost *
                         static_cast<double>(s.local_conjuncts.size())) /
                    dop;
        return node;
      }
      double sel = EstimateSelectivity(s.local_conjuncts, view);
      ExprPtr pred;
      if (!s.local_conjuncts.empty()) {
        RFID_ASSIGN_OR_RETURN(
            pred, BindExpr(CombineConjuncts(s.local_conjuncts), s.desc));
      }
      node.op =
          std::make_unique<TableScanOp>(table, s.ref.alias, std::move(pred));
      node.rows = total_rows * sel;
      node.cost = total_rows * kSeqRowCost +
                  total_rows * kFilterEvalCost *
                      static_cast<double>(s.local_conjuncts.size());
    }
    if (!remaining.empty()) {
      RFID_ASSIGN_OR_RETURN(ExprPtr pred,
                            BindExpr(CombineConjuncts(remaining), node.op->output_desc()));
      node.cost +=
          node.rows * kFilterEvalCost * static_cast<double>(remaining.size());
      double sel = EstimateSelectivity(remaining, view);
      std::vector<SlotSortKey> ordering = node.ordering;
      node.op = std::make_unique<FilterOp>(std::move(node.op), pred);
      node.rows *= sel;
      node.ordering = std::move(ordering);
    }
    return node;
  }

  // Plans all window functions appearing in `items`, updating the tree and
  // rewriting items to reference the computed columns.
  Status PlanWindows(PlanNode* tree, std::vector<SelectItem>* items) {
    std::vector<ExprPtr> calls;
    for (const SelectItem& item : *items) {
      if (!item.is_star) CollectWindowCalls(item.expr, &calls);
    }
    if (calls.empty()) return Status::OK();

    std::map<const Expr*, ExprPtr> replacements;
    std::vector<ExprPtr> pending = std::move(calls);
    while (!pending.empty()) {
      // Group a maximal batch of specs compatible with the first pending
      // call; incompatible ones wait for the next WindowOp.
      const WindowSpec spec = *pending[0]->window;
      std::vector<ExprPtr> batch;
      std::vector<ExprPtr> rest;
      for (const ExprPtr& call : pending) {
        if (WindowSpecsCompatible(spec, *call->window)) {
          batch.push_back(call);
        } else {
          rest.push_back(call);
        }
      }
      // Required ordering: partition keys then order keys.
      std::vector<SlotSortKey> required;
      std::vector<size_t> partition_slots;
      for (const ExprPtr& p : spec.partition_by) {
        RFID_ASSIGN_OR_RETURN(ExprPtr bound,
                              BindExpr(p, tree->op->output_desc()));
        if (bound->kind != ExprKind::kColumnRef) {
          return Status::Unimplemented("PARTITION BY requires plain columns");
        }
        required.push_back({static_cast<size_t>(bound->slot), true});
        partition_slots.push_back(static_cast<size_t>(bound->slot));
      }
      std::vector<SlotSortKey> order_keys;
      for (const SortKey& k : spec.order_by) {
        RFID_ASSIGN_OR_RETURN(ExprPtr bound,
                              BindExpr(k.expr, tree->op->output_desc()));
        if (bound->kind != ExprKind::kColumnRef) {
          return Status::Unimplemented("window ORDER BY requires plain columns");
        }
        required.push_back({static_cast<size_t>(bound->slot), k.ascending});
        order_keys.push_back({static_cast<size_t>(bound->slot), k.ascending});
      }
      if (!OrderingSatisfies(tree->ordering, required)) {
        tree->cost += SortCost(tree->rows);
        tree->op = std::make_unique<SortOp>(std::move(tree->op), required);
        tree->ordering = required;
      }
      // Build the aggregate specs.
      std::vector<WindowAggSpec> specs;
      for (const ExprPtr& call : batch) {
        if (!IsAggName(call->func_name)) {
          return Status::Unimplemented("unsupported window function: " +
                                       call->func_name);
        }
        WindowAggSpec ws;
        ws.func = AggFuncFromName(call->func_name);
        if (call->children.empty() ||
            (call->children.size() == 1 &&
             call->children[0]->kind == ExprKind::kStar)) {
          if (ws.func != AggFunc::kCount) {
            return Status::BindError("only COUNT(*) may omit an argument");
          }
          ws.arg = nullptr;
          ws.result_type = DataType::kInt64;
        } else {
          RFID_ASSIGN_OR_RETURN(
              ws.arg, BindExpr(call->children[0], tree->op->output_desc()));
          ws.result_type = AggResultType(ws.func, ws.arg->result_type);
        }
        if (call->window->has_frame) {
          ws.frame = call->window->frame;
        } else {
          // SQL default: unbounded preceding .. current row.
          ws.frame = FrameSpec{FrameUnit::kRows, {true, -1}, {false, 0}};
        }
        ws.output_name = StrFormat("__w%zu", window_counter_++);
        ExprPtr ref = MakeColumnRef("", ws.output_name);
        replacements[call.get()] = std::move(ref);
        specs.push_back(std::move(ws));
      }
      tree->cost += tree->rows * kWindowAggRowCost *
                    static_cast<double>(specs.size());
      std::vector<SlotSortKey> ordering = tree->ordering;
      tree->op = std::make_unique<WindowOp>(std::move(tree->op), partition_slots,
                                            order_keys, std::move(specs));
      tree->ordering = std::move(ordering);  // window preserves input order
      pending = std::move(rest);
    }
    for (SelectItem& item : *items) {
      if (!item.is_star) item.expr = ReplaceNodes(item.expr, replacements);
    }
    return Status::OK();
  }

  // Plans GROUP BY + aggregates, updating the tree and rewriting items.
  Status PlanAggregate(PlanNode* tree, const std::vector<ExprPtr>& group_exprs,
                       std::vector<SelectItem>* items) {
    // Bind group expressions.
    std::vector<ExprPtr> bound_groups;
    RowDesc agg_desc;
    for (size_t i = 0; i < group_exprs.size(); ++i) {
      RFID_ASSIGN_OR_RETURN(ExprPtr bound,
                            BindExpr(group_exprs[i], tree->op->output_desc()));
      agg_desc.AddField("", StrFormat("__g%zu", i), bound->result_type);
      bound_groups.push_back(std::move(bound));
    }
    // Extract aggregate calls from items.
    std::vector<ExprPtr> agg_calls;
    for (const SelectItem& item : *items) {
      if (item.is_star) {
        return Status::BindError("SELECT * cannot be combined with GROUP BY");
      }
      CollectAggCalls(item.expr, &agg_calls);
    }
    std::vector<AggSpec> specs;
    std::map<const Expr*, ExprPtr> replacements;
    for (size_t i = 0; i < agg_calls.size(); ++i) {
      const ExprPtr& call = agg_calls[i];
      AggSpec spec;
      spec.func = AggFuncFromName(call->func_name);
      spec.distinct = call->distinct;
      if (call->children.empty() ||
          (call->children.size() == 1 &&
           call->children[0]->kind == ExprKind::kStar)) {
        if (spec.func != AggFunc::kCount) {
          return Status::BindError("only COUNT(*) may omit an argument");
        }
        spec.arg = nullptr;
        spec.result_type = DataType::kInt64;
      } else {
        RFID_ASSIGN_OR_RETURN(spec.arg,
                              BindExpr(call->children[0], tree->op->output_desc()));
        spec.result_type = AggResultType(spec.func, spec.arg->result_type);
      }
      std::string name = StrFormat("__a%zu", i);
      agg_desc.AddField("", name, spec.result_type);
      replacements[call.get()] = MakeColumnRef("", name);
      specs.push_back(std::move(spec));
    }
    // Rewrite items: first group-expr matches (structural), then agg calls.
    for (SelectItem& item : *items) {
      item.expr = ReplaceGroupRefs(item.expr, group_exprs);
      item.expr = ReplaceNodes(item.expr, replacements);
    }
    // Estimate output cardinality.
    double out_rows = bound_groups.empty()
                          ? 1.0
                          : std::max(1.0, std::pow(tree->rows, 0.75));
    tree->cost += tree->rows * kGroupAggRowCost;
    tree->op = std::make_unique<HashAggregateOp>(
        std::move(tree->op), std::move(bound_groups), std::move(specs),
        std::move(agg_desc));
    tree->rows = out_rows;
    tree->ordering.clear();
    return Status::OK();
  }

  // Replaces subtrees structurally equal to a group-by expression with a
  // reference to the aggregate output column __g<i>. Does not descend into
  // aggregate calls (their arguments are computed pre-aggregation).
  ExprPtr ReplaceGroupRefs(const ExprPtr& e,
                           const std::vector<ExprPtr>& group_exprs) {
    if (e == nullptr) return nullptr;
    for (size_t i = 0; i < group_exprs.size(); ++i) {
      if (ExprEquals(e, group_exprs[i])) {
        return MakeColumnRef("", StrFormat("__g%zu", i));
      }
    }
    if (e->kind == ExprKind::kFuncCall && IsAggName(e->func_name) &&
        !e->window.has_value()) {
      return e;
    }
    auto copy = std::make_shared<Expr>(*e);
    bool changed = false;
    for (auto& child : copy->children) {
      ExprPtr nc = ReplaceGroupRefs(child, group_exprs);
      if (nc != child) changed = true;
      child = nc;
    }
    return changed ? copy : e;
  }

  const Database* db_;
  ExecContext* ctx_;
  size_t window_counter_ = 0;
};

}  // namespace

Result<PlannedQuery> Planner::Plan(const SelectStatement& stmt) {
  RFID_FAULT_POINT("plan.Plan");
  PlannerImpl impl(db_, ctx_);
  RFID_ASSIGN_OR_RETURN(PlanNode node, impl.PlanStatement(stmt, {}));
  PlannedQuery out;
  out.root = std::move(node.op);
  out.estimated_rows = node.rows;
  out.estimated_cost = node.cost;
  out.max_dop = MaxTreeDop(*out.root);
  // Whole-plan invariant check over the finished tree (ORDER BY / LIMIT
  // / UNION ALL wrappers included).
  if (VerifyEnabled()) {
    RFID_RETURN_IF_ERROR(VerifyPlan(*out.root, "final", ctx_));
  }
  return out;
}

Result<PlannedQuery> PlanSql(const Database& db, std::string_view sql,
                             ExecContext* ctx) {
  RFID_ASSIGN_OR_RETURN(StatementPtr stmt, ParseSql(sql));
  Planner planner(&db, ctx);
  return planner.Plan(*stmt);
}

Result<QueryResult> ExecuteSql(const Database& db, std::string_view sql) {
  ExecContext ctx;  // unlimited per-query context
  return ExecuteSql(db, sql, &ctx);
}

Result<QueryResult> ExecuteSql(const Database& db, std::string_view sql,
                               ExecContext* ctx) {
  if (ctx == nullptr) ctx = ExecContext::Default();
  RFID_ASSIGN_OR_RETURN(PlannedQuery plan, PlanSql(db, sql, ctx));
  QueryResult result;
  result.desc = plan.root->output_desc();
  result.estimated_cost = plan.estimated_cost;
  RFID_ASSIGN_OR_RETURN(result.rows, CollectRows(plan.root.get(), ctx));
  result.max_dop = plan.max_dop;
  // First explain line records the planner's serial-vs-parallel decision
  // next to the policy that produced it (threshold in estimated rows).
  const ParallelPolicy policy = CurrentParallelPolicy();
  std::string header;
  if (plan.max_dop > 1) {
    header = StrFormat("parallelism: dop=%d (policy max_dop=%d, threshold=%s rows)\n",
                       plan.max_dop, policy.max_dop,
                       std::to_string(policy.min_parallel_rows).c_str());
  } else {
    header = StrFormat("parallelism: serial (policy max_dop=%d, threshold=%s rows)\n",
                       policy.max_dop,
                       std::to_string(policy.min_parallel_rows).c_str());
  }
  // Second line: the engine mode — vectorized batch size, or row-at-a-time.
  if (VectorizedEnabled()) {
    header += StrFormat("vectorized: on (batch=%s)\n",
                        std::to_string(BatchCapacity()).c_str());
  } else {
    header += "vectorized: off\n";
  }
  // Third line: the storage scan mode — encoded columnar segments with
  // the active SIMD dispatch level, or row store only.
  if (ColumnarEnabled()) {
    header += StrFormat("columnar: on (simd=%s)\n", simd::ActiveLevelName());
  } else {
    header += "columnar: off\n";
  }
  result.explain = header + ExplainOperatorTree(*plan.root);
  result.peak_memory_bytes = ctx->memory_peak();
  return result;
}

}  // namespace rfid
