// The benchmark workload of Section 6: the five cleansing rules of
// Section 4.3 with the experiment parameters (t1=5, t2=10, t3=20 minutes)
// and the analytic queries of Figure 6 (q1 "dwell", q2 "site analysis",
// and the q2' variant whose predicate is uncorrelated with EPCs).
#ifndef RFID_RFIDGEN_WORKLOAD_H_
#define RFID_RFIDGEN_WORKLOAD_H_

#include <string>
#include <vector>

#include "storage/catalog.h"

namespace rfid::workload {

/// Rule definitions in the order of Table 1: reader, duplicate, replacing,
/// cycle, missing (the missing rule contributes its two sub-rules). Pass a
/// prefix count to enable only the first k rules (k in 1..5).
std::vector<std::string> StandardRuleDefinitions(int num_rules = 5);

/// q1 — dwell analysis: average time between consecutive locations, for
/// reads with rtime <= t1.
std::string Q1(int64_t t1_micros);

/// q2 — site analysis: per-manufacturer distinct business-step types and
/// readers at one distribution center, for reads with rtime >= t2.
std::string Q2(int64_t t2_micros, const std::string& site = "dc2");

/// q2' — q2 with the site predicate replaced by a business-step type
/// predicate (uncorrelated with EPC sequences; Figure 8).
std::string Q2Prime(int64_t t2_micros, int64_t step_type = 3);

/// Timestamps hitting a target selectivity of the rtime predicate against
/// caseR's [min, max] rtime range (fraction in (0, 1]).
int64_t T1ForSelectivity(const Database& db, double fraction);  // rtime <= T1
int64_t T2ForSelectivity(const Database& db, double fraction);  // rtime >= T2

}  // namespace rfid::workload

#endif  // RFID_RFIDGEN_WORKLOAD_H_
