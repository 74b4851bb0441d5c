// Plan invariant checker: a structural verification pass over physical
// operator trees, run after each planner/rewriter phase (Debug default,
// RFID_VERIFY_PLANS override — see verify/verify.h).
//
// Invariant catalog (each violation's Status names phase, operator, and
// invariant, and never crashes — partially-constructed plans from fault
// sweeps are legal inputs):
//   column-ref-bound   every column reference in a bound expression
//                      resolves to a slot inside its input descriptor,
//                      with a type consistent with that field
//   output-schema      each operator's output descriptor has the arity
//                      and field types its inputs and expressions imply
//   sort-keys          sort/window key slots index into the child row
//   window-ordering    a window's required (PARTITION BY, ORDER BY)
//                      ordering is satisfied by the ordering guaranteed
//                      bottom-up through scan/sort/join/project
//   join-keys          hash-join build/probe key lists have equal arity,
//                      in-range slots, and comparable types
//   dop-bounds         per-operator dop= tags lie within the parallel
//                      policy ChooseDop was allowed to use (dop >= 2
//                      only on the parallel scan, always 1 while fault
//                      injection pins plans serial)
//   snapshot-index     an index scan under a pinned TableSnapshot uses
//                      exactly the snapshot's pinned index (and a live
//                      index scan uses the table's current, non-stale
//                      index), so reads stay behind the watermark
//   null-child         operator wiring is complete (no null inputs)
#ifndef RFID_VERIFY_PLAN_VERIFIER_H_
#define RFID_VERIFY_PLAN_VERIFIER_H_

#include "exec/exec_context.h"
#include "exec/operator.h"

namespace rfid {

/// Verifies the subtree rooted at `root` (which may be a partial plan:
/// any phase's intermediate tree is a well-formed subtree). `ctx`
/// supplies the pinned snapshot, if any; nullptr means no snapshot.
/// Returns the first violation found, or OK. Does not run the
/// VerifyEnabled() gate — callers decide (the planner checks once per
/// phase).
Status VerifyPlan(const Operator& root, const char* phase,
                  const ExecContext* ctx);

}  // namespace rfid

#endif  // RFID_VERIFY_PLAN_VERIFIER_H_
