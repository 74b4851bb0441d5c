#include "rfidgen/workload.h"

#include <cassert>

#include "common/string_util.h"
#include "rfidgen/rfidgen.h"

namespace rfid::workload {

std::vector<std::string> StandardRuleDefinitions(int num_rules) {
  assert(num_rules >= 1 && num_rules <= 5);
  std::vector<std::string> defs;
  // 1. reader (t2 = 10 minutes)
  defs.push_back(
      "DEFINE reader ON caseR CLUSTER BY epc SEQUENCE BY rtime "
      "AS (A, *B) "
      "WHERE B.reader = 'readerX' AND B.rtime - A.rtime < 10 MINUTES "
      "ACTION DELETE A");
  if (num_rules >= 2) {
    // 2. duplicate (t1 = 5 minutes)
    defs.push_back(
        "DEFINE duplicate ON caseR CLUSTER BY epc SEQUENCE BY rtime "
        "AS (A, B) "
        "WHERE A.biz_loc = B.biz_loc AND B.rtime - A.rtime < 5 MINUTES "
        "ACTION DELETE B");
  }
  if (num_rules >= 3) {
    // 3. replacing (t3 = 20 minutes), on the generator's cross-read dock.
    defs.push_back(StrFormat(
        "DEFINE replacing ON caseR CLUSTER BY epc SEQUENCE BY rtime "
        "AS (A, B) "
        "WHERE A.biz_loc = '%s' AND B.biz_loc = '%s' AND "
        "B.rtime - A.rtime < 20 MINUTES "
        "ACTION MODIFY A.biz_loc = '%s'",
        rfidgen::kLoc2, rfidgen::kLocA, rfidgen::kLoc1));
  }
  if (num_rules >= 4) {
    // 4. cycle
    defs.push_back(
        "DEFINE cycle ON caseR CLUSTER BY epc SEQUENCE BY rtime "
        "AS (A, B, C) "
        "WHERE A.biz_loc = C.biz_loc AND A.biz_loc <> B.biz_loc "
        "ACTION DELETE B");
  }
  if (num_rules >= 5) {
    // 5. missing (two sub-rules over the derived caseR ∪ pallet input).
    defs.push_back(
        "DEFINE missing_r1 ON caseR "
        "FROM (select epc, rtime, reader, biz_loc, biz_step, 0 as is_pallet "
        "      from caseR "
        "      union all "
        "      select parent.child_epc as epc, palletR.rtime, palletR.reader, "
        "             palletR.biz_loc, palletR.biz_step, 1 as is_pallet "
        "      from palletR, parent "
        "      where palletR.epc = parent.parent_epc) "
        "CLUSTER BY epc SEQUENCE BY rtime "
        "AS (X, A, Y) "
        "WHERE A.is_pallet = 1 AND "
        "((X.is_pallet = 0 AND A.biz_loc = X.biz_loc AND "
        "  A.rtime - X.rtime < 5 MINUTES) OR "
        " (Y.is_pallet = 0 AND A.biz_loc = Y.biz_loc AND "
        "  Y.rtime - A.rtime < 5 MINUTES)) "
        "ACTION MODIFY A.has_case_nearby = 1");
    defs.push_back(
        "DEFINE missing_r2 ON caseR CLUSTER BY epc SEQUENCE BY rtime "
        "AS (A, *B) "
        "WHERE A.is_pallet = 0 OR "
        "(A.has_case_nearby = 0 AND B.has_case_nearby = 1) "
        "ACTION KEEP A");
  }
  return defs;
}

std::string Q1(int64_t t1_micros) {
  return StrFormat(
      "WITH v1 AS ("
      "SELECT biz_loc AS current_loc, rtime, "
      "MAX(rtime) OVER (PARTITION BY epc ORDER BY rtime "
      "ROWS BETWEEN 1 PRECEDING AND 1 PRECEDING) AS prev_time, "
      "MAX(biz_loc) OVER (PARTITION BY epc ORDER BY rtime "
      "ROWS BETWEEN 1 PRECEDING AND 1 PRECEDING) AS prev_loc "
      "FROM caseR WHERE rtime <= TIMESTAMP %lld) "
      "SELECT l1.loc_desc, l2.loc_desc, AVG(rtime - prev_time) "
      "FROM v1, locs l1, locs l2 "
      "WHERE v1.prev_loc = l1.gln AND v1.current_loc = l2.gln "
      "GROUP BY l1.loc_desc, l2.loc_desc",
      static_cast<long long>(t1_micros));
}

std::string Q2(int64_t t2_micros, const std::string& site) {
  return StrFormat(
      "SELECT p.manufacturer, COUNT(DISTINCT s.type), "
      "COUNT(DISTINCT c.reader) "
      "FROM caseR c, steps s, locs l, epc_info i, product p "
      "WHERE c.biz_step = s.biz_step AND c.biz_loc = l.gln "
      "AND c.epc = i.epc AND i.product = p.product "
      "AND c.rtime >= TIMESTAMP %lld AND l.site = '%s' "
      "GROUP BY p.manufacturer",
      static_cast<long long>(t2_micros), site.c_str());
}

std::string Q2Prime(int64_t t2_micros, int64_t step_type) {
  return StrFormat(
      "SELECT p.manufacturer, COUNT(DISTINCT l.site), "
      "COUNT(DISTINCT c.reader) "
      "FROM caseR c, steps s, locs l, epc_info i, product p "
      "WHERE c.biz_step = s.biz_step AND c.biz_loc = l.gln "
      "AND c.epc = i.epc AND i.product = p.product "
      "AND c.rtime >= TIMESTAMP %lld AND s.type = %lld "
      "GROUP BY p.manufacturer",
      static_cast<long long>(t2_micros), static_cast<long long>(step_type));
}

namespace {
void RtimeRange(const Database& db, int64_t* lo, int64_t* hi) {
  const Table* case_r = db.GetTable("caseR");
  assert(case_r != nullptr && case_r->has_stats());
  int col = case_r->schema().FindColumn("rtime");
  const ColumnStats& st = case_r->stats(static_cast<size_t>(col));
  *lo = st.min.timestamp_value();
  *hi = st.max.timestamp_value();
}
}  // namespace

int64_t T1ForSelectivity(const Database& db, double fraction) {
  int64_t lo;
  int64_t hi;
  RtimeRange(db, &lo, &hi);
  return lo + static_cast<int64_t>(fraction * static_cast<double>(hi - lo));
}

int64_t T2ForSelectivity(const Database& db, double fraction) {
  int64_t lo;
  int64_t hi;
  RtimeRange(db, &lo, &hi);
  return hi - static_cast<int64_t>(fraction * static_cast<double>(hi - lo));
}

}  // namespace rfid::workload
