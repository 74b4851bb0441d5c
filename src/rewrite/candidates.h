// Candidate assembly for the rewrite engine: turns a strategy choice plus
// restriction predicates into a complete SQL statement (WITH chain over
// the restricted input, user query body re-targeted at the cleansed
// output).
#ifndef RFID_REWRITE_CANDIDATES_H_
#define RFID_REWRITE_CANDIDATES_H_

#include "cleansing/chain.h"
#include "rewrite/rewriter.h"

namespace rfid {

struct CandidateSpec {
  std::string label;
  RewriteStrategy strategy = RewriteStrategy::kNaive;
  // Condition pushed onto the raw reads table (and into each arm of a
  // derived rule input's union); nullptr = none. Columns unqualified.
  ExprPtr input_condition;
  // Join-back: when set, the input is semi-joined to the distinct cluster
  // keys of the keys source filtered by this condition.
  bool join_back = false;
  ExprPtr keys_condition;
};

/// Builds the rewritten statement for one candidate. `original` is the
/// parsed user query (left untouched), `table` the rules' ON table.
Result<std::string> AssembleRewrite(const SelectStatement& original,
                                    const std::string& table,
                                    const std::vector<const CleansingRule*>& rules,
                                    const Database& db,
                                    const CandidateSpec& spec);

}  // namespace rfid

#endif  // RFID_REWRITE_CANDIDATES_H_
