#include "verify/plan_verifier.h"

#include <string>
#include <vector>

#include "common/fault.h"
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
#include "storage/snapshot.h"

namespace rfid {

namespace {

Status Violation(const char* phase, const Operator& op, const char* invariant,
                 const std::string& detail) {
  return Status::Internal(StrFormat("verify[%s] op=%s: invariant=%s: %s",
                                    phase, op.name().c_str(), invariant,
                                    detail.c_str()));
}

// The largest dop the planner's ChooseDop could have handed out when this
// plan was built. Mirrors ChooseDop's gates: fault sweeps pin plans
// serial; otherwise the policy's max_dop bounds it.
int MaxAllowedDop() {
  if (FaultInjectionActive()) return 1;
  ParallelPolicy p = CurrentParallelPolicy();
  return p.max_dop < 1 ? 1 : p.max_dop;
}

// Validates a bound expression against the descriptor of the rows it will
// be evaluated over: every column reference carries an in-range slot
// whose type agrees with the input field. kNull field/result types mean
// "statically unknown" and are exempt from the type check.
Status CheckBoundExpr(const char* phase, const Operator& op, const Expr& e,
                      const RowDesc& input) {
  if (e.kind == ExprKind::kColumnRef) {
    if (e.slot < 0 || static_cast<size_t>(e.slot) >= input.num_fields()) {
      return Violation(
          phase, op, "column-ref-bound",
          StrFormat("column %s bound to slot %d outside input row of %zu "
                    "fields",
                    e.column.c_str(), e.slot, input.num_fields()));
    }
    DataType field = input.fields()[static_cast<size_t>(e.slot)].type;
    if (field != DataType::kNull && e.result_type != DataType::kNull &&
        field != e.result_type) {
      return Violation(
          phase, op, "column-ref-bound",
          StrFormat("column %s bound as %s but slot %d holds %s",
                    e.column.c_str(), DataTypeName(e.result_type), e.slot,
                    DataTypeName(field)));
    }
  }
  for (const ExprPtr& c : e.children) {
    if (c == nullptr) continue;
    RFID_RETURN_IF_ERROR(CheckBoundExpr(phase, op, *c, input));
  }
  return Status::OK();
}

// True if `current` ordering satisfies `required` as a prefix — the same
// predicate the planner's order-sharing logic uses.
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

std::string OrderingToString(const std::vector<SlotSortKey>& keys) {
  std::string s = "[";
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) s += ", ";
    s += StrFormat("%zu%s", keys[i].slot, keys[i].ascending ? " asc" : " desc");
  }
  return s + "]";
}

// Output descriptors that must mirror the input field-for-field
// (filter/sort/limit/distinct are pass-through operators).
Status CheckPassThroughSchema(const char* phase, const Operator& op,
                              const RowDesc& input) {
  const RowDesc& out = op.output_desc();
  if (out.num_fields() != input.num_fields()) {
    return Violation(phase, op, "output-schema",
                     StrFormat("pass-through operator emits %zu fields but "
                               "its input has %zu",
                               out.num_fields(), input.num_fields()));
  }
  for (size_t i = 0; i < out.num_fields(); ++i) {
    if (out.fields()[i].type != input.fields()[i].type) {
      return Violation(
          phase, op, "output-schema",
          StrFormat("field %zu is %s but the input field is %s", i,
                    DataTypeName(out.fields()[i].type),
                    DataTypeName(input.fields()[i].type)));
    }
  }
  return Status::OK();
}

// The snapshot pinned for `table` on the context, if any.
const TableSnapshot* SnapshotFor(const ExecContext* ctx, const Table* table) {
  if (ctx == nullptr || table == nullptr) return nullptr;
  const SnapshotPtr& snap = ctx->snapshot();
  return snap == nullptr ? nullptr : snap->ForTable(table);
}

class PlanChecker {
 public:
  PlanChecker(const char* phase, const ExecContext* ctx)
      : phase_(phase), ctx_(ctx) {}

  // Verifies the subtree and computes its guaranteed output ordering —
  // the same bottom-up propagation the planner tracks in
  // PlanNode::ordering, so the window-ordering invariant is checked
  // against what the physical tree actually provides.
  Result<std::vector<SlotSortKey>> Walk(const Operator& op) {
    RFID_RETURN_IF_ERROR(CheckDop(op));
    std::vector<const Operator*> kids = op.children();
    for (const Operator* kid : kids) {
      if (kid == nullptr) {
        return Violation(phase_, op, "null-child",
                         "operator has a null input");
      }
    }

    if (const auto* scan = dynamic_cast<const TableScanOp*>(&op)) {
      if (scan->table() == nullptr) {
        return Violation(phase_, op, "null-child", "scan has no table");
      }
      if (scan->predicate() != nullptr) {
        RFID_RETURN_IF_ERROR(CheckBoundExpr(phase_, op, *scan->predicate(),
                                            op.output_desc()));
      }
      return std::vector<SlotSortKey>{};
    }
    if (const auto* scan = dynamic_cast<const ParallelTableScanOp*>(&op)) {
      if (scan->table() == nullptr) {
        return Violation(phase_, op, "null-child", "scan has no table");
      }
      if (op.dop() < 2) {
        return Violation(phase_, op, "dop-bounds",
                         StrFormat("parallel scan with dop=%d; the planner "
                                   "only builds it for dop >= 2",
                                   op.dop()));
      }
      if (scan->predicate() != nullptr) {
        RFID_RETURN_IF_ERROR(CheckBoundExpr(phase_, op, *scan->predicate(),
                                            op.output_desc()));
      }
      return std::vector<SlotSortKey>{};
    }
    if (const auto* scan = dynamic_cast<const IndexRangeScanOp*>(&op)) {
      RFID_RETURN_IF_ERROR(CheckIndexScan(*scan));
      return IndexOrdering(*scan);
    }

    if (dynamic_cast<const FragmentScanOp*>(&op) != nullptr) {
      // Leaf over a cached cleansed fragment; claims no ordering (the
      // stitcher relies on concatenation order, not per-scan ordering).
      return std::vector<SlotSortKey>{};
    }
    if (dynamic_cast<const FragmentMaterializeOp*>(&op) != nullptr) {
      // Pass-through tee: schema mirrors the fill sub-plan, ordering is
      // whatever the child provides.
      RFID_ASSIGN_OR_RETURN(std::vector<SlotSortKey> ord, Walk(*kids[0]));
      RFID_RETURN_IF_ERROR(
          CheckPassThroughSchema(phase_, op, kids[0]->output_desc()));
      return ord;
    }

    if (const auto* filter = dynamic_cast<const FilterOp*>(&op)) {
      RFID_ASSIGN_OR_RETURN(std::vector<SlotSortKey> ord, Walk(*kids[0]));
      if (filter->predicate() == nullptr) {
        return Violation(phase_, op, "null-child", "filter has no predicate");
      }
      RFID_RETURN_IF_ERROR(CheckBoundExpr(phase_, op, *filter->predicate(),
                                          kids[0]->output_desc()));
      RFID_RETURN_IF_ERROR(
          CheckPassThroughSchema(phase_, op, kids[0]->output_desc()));
      return ord;
    }
    if (const auto* project = dynamic_cast<const ProjectOp*>(&op)) {
      return CheckProject(*project, *kids[0]);
    }
    if (dynamic_cast<const LimitOp*>(&op) != nullptr ||
        dynamic_cast<const RenameOp*>(&op) != nullptr) {
      RFID_ASSIGN_OR_RETURN(std::vector<SlotSortKey> ord, Walk(*kids[0]));
      RFID_RETURN_IF_ERROR(
          CheckPassThroughSchema(phase_, op, kids[0]->output_desc()));
      return ord;
    }
    if (dynamic_cast<const DistinctOp*>(&op) != nullptr) {
      RFID_ASSIGN_OR_RETURN(std::vector<SlotSortKey> ord, Walk(*kids[0]));
      RFID_RETURN_IF_ERROR(
          CheckPassThroughSchema(phase_, op, kids[0]->output_desc()));
      return ord;  // first-seen emission keeps the input order
    }
    if (const auto* sort = dynamic_cast<const SortOp*>(&op)) {
      RFID_RETURN_IF_ERROR(Walk(*kids[0]).status());
      const RowDesc& input = kids[0]->output_desc();
      for (const SlotSortKey& k : sort->keys()) {
        if (k.slot >= input.num_fields()) {
          return Violation(phase_, op, "sort-keys",
                           StrFormat("key slot %zu outside input row of %zu "
                                     "fields",
                                     k.slot, input.num_fields()));
        }
      }
      RFID_RETURN_IF_ERROR(CheckPassThroughSchema(phase_, op, input));
      return sort->keys();
    }
    if (const auto* window = dynamic_cast<const WindowOp*>(&op)) {
      return CheckWindow(*window, *kids[0]);
    }
    if (const auto* join = dynamic_cast<const HashJoinOp*>(&op)) {
      return CheckJoin(*join, *kids[0], *kids[1]);
    }
    if (const auto* agg = dynamic_cast<const HashAggregateOp*>(&op)) {
      RFID_RETURN_IF_ERROR(CheckAggregate(*agg, *kids[0]));
      return std::vector<SlotSortKey>{};
    }
    if (dynamic_cast<const UnionAllOp*>(&op) != nullptr) {
      for (const Operator* kid : kids) {
        RFID_RETURN_IF_ERROR(Walk(*kid).status());
        if (kid->output_desc().num_fields() != op.output_desc().num_fields()) {
          return Violation(
              phase_, op, "output-schema",
              StrFormat("input arity %zu differs from output arity %zu",
                        kid->output_desc().num_fields(),
                        op.output_desc().num_fields()));
        }
      }
      return std::vector<SlotSortKey>{};
    }

    // Unknown operator kind: verify the children, claim no ordering.
    for (const Operator* kid : kids) {
      RFID_RETURN_IF_ERROR(Walk(*kid).status());
    }
    return std::vector<SlotSortKey>{};
  }

 private:
  Status CheckDop(const Operator& op) {
    const int allowed = MaxAllowedDop();
    if (op.dop() < 1 || op.dop() > allowed) {
      return Violation(phase_, op, "dop-bounds",
                       StrFormat("dop=%d outside [1, %d] permitted by the "
                                 "parallel policy%s",
                                 op.dop(), allowed,
                                 FaultInjectionActive()
                                     ? " (fault injection pins plans serial)"
                                     : ""));
    }
    return Status::OK();
  }

  Status CheckIndexScan(const IndexRangeScanOp& scan) {
    const Table* table = scan.table();
    const SortedIndex* index = scan.index();
    if (table == nullptr || index == nullptr) {
      return Violation(phase_, scan, "null-child",
                       "index scan missing table or index");
    }
    // The scan must hold exactly the index the execution-time read path
    // will trust: the snapshot's pinned index when one covers the table
    // (reads filtered to the watermark), else the table's current,
    // non-stale index. Anything else is a stale or foreign pointer that
    // could surface rows past the watermark.
    const TableSnapshot* ts = SnapshotFor(ctx_, table);
    const SortedIndex* expected = ts != nullptr
                                      ? ts->FindIndex(index->column_name())
                                      : table->GetIndex(index->column_name());
    if (expected != index) {
      return Violation(
          phase_, scan, "snapshot-index",
          StrFormat("index on %s is not the %s for this table",
                    index->column_name().c_str(),
                    ts != nullptr ? "snapshot-pinned index"
                                  : "table's current index"));
    }
    return Status::OK();
  }

  Result<std::vector<SlotSortKey>> IndexOrdering(const IndexRangeScanOp& scan) {
    const RowDesc& out = scan.output_desc();
    for (size_t i = 0; i < out.num_fields(); ++i) {
      if (EqualsIgnoreCase(out.fields()[i].name,
                           scan.index()->column_name())) {
        return std::vector<SlotSortKey>{{i, true}};
      }
    }
    return Violation(phase_, scan, "output-schema",
                     StrFormat("indexed column %s not present in the scan "
                               "output",
                               scan.index()->column_name().c_str()));
  }

  Result<std::vector<SlotSortKey>> CheckProject(const ProjectOp& project,
                                                const Operator& child) {
    RFID_ASSIGN_OR_RETURN(std::vector<SlotSortKey> child_ord, Walk(child));
    const RowDesc& input = child.output_desc();
    const RowDesc& out = project.output_desc();
    if (project.exprs().size() != out.num_fields()) {
      return Violation(
          phase_, project, "output-schema",
          StrFormat("%zu expressions but %zu output fields",
                    project.exprs().size(), out.num_fields()));
    }
    for (size_t i = 0; i < project.exprs().size(); ++i) {
      const ExprPtr& e = project.exprs()[i];
      if (e == nullptr) {
        return Violation(phase_, project, "null-child",
                         StrFormat("expression %zu is null", i));
      }
      RFID_RETURN_IF_ERROR(CheckBoundExpr(phase_, project, *e, input));
      DataType ft = out.fields()[i].type;
      if (ft != DataType::kNull && e->result_type != DataType::kNull &&
          ft != e->result_type) {
        return Violation(
            phase_, project, "output-schema",
            StrFormat("field %zu declared %s but its expression computes %s",
                      i, DataTypeName(ft), DataTypeName(e->result_type)));
      }
    }
    // Ordering survives through bare column projections as a prefix —
    // the same remap (stop at the first non-projected key) the planner
    // applies.
    std::vector<SlotSortKey> ord;
    for (const SlotSortKey& key : child_ord) {
      bool found = false;
      for (size_t i = 0; i < project.exprs().size(); ++i) {
        const ExprPtr& e = project.exprs()[i];
        if (e->kind == ExprKind::kColumnRef &&
            static_cast<size_t>(e->slot) == key.slot) {
          ord.push_back({i, key.ascending});
          found = true;
          break;
        }
      }
      if (!found) break;
    }
    return ord;
  }

  Result<std::vector<SlotSortKey>> CheckWindow(const WindowOp& window,
                                               const Operator& child) {
    RFID_ASSIGN_OR_RETURN(std::vector<SlotSortKey> child_ord, Walk(child));
    const RowDesc& input = child.output_desc();
    std::vector<SlotSortKey> required;
    for (size_t slot : window.partition_slots()) {
      if (slot >= input.num_fields()) {
        return Violation(phase_, window, "sort-keys",
                         StrFormat("partition slot %zu outside input row of "
                                   "%zu fields",
                                   slot, input.num_fields()));
      }
      required.push_back({slot, true});
    }
    for (const SlotSortKey& k : window.order_keys()) {
      if (k.slot >= input.num_fields()) {
        return Violation(phase_, window, "sort-keys",
                         StrFormat("order key slot %zu outside input row of "
                                   "%zu fields",
                                   k.slot, input.num_fields()));
      }
      required.push_back(k);
    }
    if (!OrderingSatisfies(child_ord, required)) {
      return Violation(
          phase_, window, "window-ordering",
          StrFormat("requires input ordered by %s but the child guarantees "
                    "%s",
                    OrderingToString(required).c_str(),
                    OrderingToString(child_ord).c_str()));
    }
    const RowDesc& out = window.output_desc();
    if (out.num_fields() != input.num_fields() + window.aggs().size()) {
      return Violation(
          phase_, window, "output-schema",
          StrFormat("output arity %zu != input %zu + %zu window columns",
                    out.num_fields(), input.num_fields(),
                    window.aggs().size()));
    }
    for (size_t a = 0; a < window.aggs().size(); ++a) {
      const WindowAggSpec& spec = window.aggs()[a];
      if (spec.arg == nullptr) {
        if (spec.func != AggFunc::kCount) {
          return Violation(phase_, window, "output-schema",
                           StrFormat("window column %zu (%s) has no argument "
                                     "but is not COUNT(*)",
                                     a, AggFuncName(spec.func)));
        }
      } else {
        RFID_RETURN_IF_ERROR(CheckBoundExpr(phase_, window, *spec.arg, input));
      }
    }
    return child_ord;  // window appends columns, order untouched
  }

  Result<std::vector<SlotSortKey>> CheckJoin(const HashJoinOp& join,
                                             const Operator& probe,
                                             const Operator& build) {
    RFID_ASSIGN_OR_RETURN(std::vector<SlotSortKey> probe_ord, Walk(probe));
    RFID_RETURN_IF_ERROR(Walk(build).status());
    const RowDesc& pd = probe.output_desc();
    const RowDesc& bd = build.output_desc();
    if (join.probe_key_slots().size() != join.build_key_slots().size() ||
        join.probe_key_slots().empty()) {
      return Violation(
          phase_, join, "join-keys",
          StrFormat("%zu probe keys vs %zu build keys",
                    join.probe_key_slots().size(),
                    join.build_key_slots().size()));
    }
    for (size_t i = 0; i < join.probe_key_slots().size(); ++i) {
      size_t ps = join.probe_key_slots()[i];
      size_t bs = join.build_key_slots()[i];
      if (ps >= pd.num_fields() || bs >= bd.num_fields()) {
        return Violation(
            phase_, join, "join-keys",
            StrFormat("key %zu slots (probe %zu of %zu, build %zu of %zu) "
                      "out of range",
                      i, ps, pd.num_fields(), bs, bd.num_fields()));
      }
      DataType pt = pd.fields()[ps].type;
      DataType bt = bd.fields()[bs].type;
      if (pt != DataType::kNull && bt != DataType::kNull &&
          !TypesComparable(pt, bt)) {
        return Violation(
            phase_, join, "join-keys",
            StrFormat("key %zu joins %s with %s — the hash table would "
                      "never match",
                      i, DataTypeName(pt), DataTypeName(bt)));
      }
    }
    size_t want = join.join_type() == JoinType::kInner
                      ? pd.num_fields() + bd.num_fields()
                      : pd.num_fields();
    if (join.output_desc().num_fields() != want) {
      return Violation(
          phase_, join, "output-schema",
          StrFormat("output arity %zu, expected %zu for a %s join",
                    join.output_desc().num_fields(), want,
                    join.join_type() == JoinType::kInner ? "inner"
                                                         : "left-semi"));
    }
    return probe_ord;  // probe side streams: its order is preserved
  }

  Status CheckAggregate(const HashAggregateOp& agg, const Operator& child) {
    RFID_RETURN_IF_ERROR(Walk(child).status());
    const RowDesc& input = child.output_desc();
    if (agg.output_desc().num_fields() !=
        agg.group_exprs().size() + agg.aggs().size()) {
      return Violation(
          phase_, agg, "output-schema",
          StrFormat("output arity %zu != %zu group keys + %zu aggregates",
                    agg.output_desc().num_fields(), agg.group_exprs().size(),
                    agg.aggs().size()));
    }
    for (const ExprPtr& g : agg.group_exprs()) {
      if (g == nullptr) {
        return Violation(phase_, agg, "null-child", "null group expression");
      }
      RFID_RETURN_IF_ERROR(CheckBoundExpr(phase_, agg, *g, input));
    }
    for (size_t i = 0; i < agg.aggs().size(); ++i) {
      const AggSpec& spec = agg.aggs()[i];
      if (spec.arg == nullptr) {
        if (spec.func != AggFunc::kCount) {
          return Violation(phase_, agg, "output-schema",
                           StrFormat("aggregate %zu (%s) has no argument but "
                                     "is not COUNT(*)",
                                     i, AggFuncName(spec.func)));
        }
      } else {
        RFID_RETURN_IF_ERROR(CheckBoundExpr(phase_, agg, *spec.arg, input));
      }
    }
    return Status::OK();
  }

  const char* phase_;
  const ExecContext* ctx_;
};

}  // namespace

Status VerifyPlan(const Operator& root, const char* phase,
                  const ExecContext* ctx) {
  RFID_FAULT_POINT("verify.Plan");
  return PlanChecker(phase, ctx).Walk(root).status();
}

}  // namespace rfid
