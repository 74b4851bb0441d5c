// Builds the cleansing chain Φ_Cn(...Φ_C1(input)) as a list of WITH
// clauses over a caller-supplied restricted input relation.
//
// Rules apply in creation order (Section 4.4). A rule with a derived
// input (FROM (SELECT ...)) has every reference to the ON table inside
// that SELECT replaced by the chain's current output, so the extra
// compensation data (e.g. expected pallet reads) is unioned with the
// already-cleansed stream — this is how the missing-read rule composes
// with earlier rules. The query's restriction is pushed into each arm of
// that union (e.g. `epc = X` becomes `parent.child_epc = X` on the pallet
// arm), so only the restricted objects' compensation rows are built.
#ifndef RFID_CLEANSING_CHAIN_H_
#define RFID_CLEANSING_CHAIN_H_

#include "cleansing/rule_compiler.h"

namespace rfid {

struct CleansingChain {
  // WITH clauses in order: (name, body SQL).
  std::vector<std::pair<std::string, std::string>> with_clauses;
  std::string output_name;             // relation holding cleansed rows
  std::vector<Column> output_columns;  // its schema
};

/// `input_name`/`input_columns`: the WITH clause (declared by the caller)
/// holding the — possibly restricted — rows of the rules' ON table.
/// `derived_filter` (optional): a condition over the rule input's columns,
/// unqualified, applied to any derived rule input so compensation rows
/// are restricted the same way as base rows. It is pushed into each
/// UNION ALL core (PushFilterIntoCores); an input whose cores cannot take
/// it is filtered after the union instead.
Result<CleansingChain> BuildCleansingChain(
    const std::vector<const CleansingRule*>& rules, const Database& db,
    const std::string& input_name, const std::vector<Column>& input_columns,
    const ExprPtr& derived_filter = nullptr);

/// AND-s `filter` — a condition over `stmt`'s output columns, unqualified —
/// onto the WHERE of every UNION ALL core, with each column reference
/// replaced by the expression that core projects in that output position
/// (`epc` becomes `parent.child_epc` on an arm projecting
/// `parent.child_epc AS epc`). IN-subqueries in the filter are kept
/// intact. Returns false and leaves `stmt` untouched when the rows of some
/// core are not filterable that way (`*`, GROUP BY, aggregates, window
/// calls, LIMIT) or the filter names a column the statement does not
/// output. A null filter is pushed trivially.
bool PushFilterIntoCores(SelectStatement* stmt, const ExprPtr& filter);

/// Replaces FROM references to `from` (case-insensitive) with `to`
/// throughout the statement, including WITH bodies and IN-subqueries.
void ReplaceTableRefs(SelectStatement* stmt, std::string_view from,
                      const std::string& to);

}  // namespace rfid

#endif  // RFID_CLEANSING_CHAIN_H_
