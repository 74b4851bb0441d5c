// End-to-end SQL execution tests: plans built by the planner, executed by
// the engine, checked for both results and plan shape (index usage, order
// sharing, join strategy).
#include <gtest/gtest.h>

#include "common/time_util.h"
#include "plan/planner.h"
#include "sql/parser.h"

namespace rfid {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema reads;
    reads.AddColumn("epc", DataType::kString);
    reads.AddColumn("rtime", DataType::kTimestamp);
    reads.AddColumn("reader", DataType::kString);
    reads.AddColumn("biz_loc", DataType::kString);
    Table* r = db_.CreateTable("caseR", reads).value();
    // epc e1: locA -> locA(dup) -> locB;  epc e2: locB -> locC.
    Add(r, "e1", Minutes(0), "r1", "locA");
    Add(r, "e1", Minutes(2), "r2", "locA");
    Add(r, "e1", Minutes(90), "r3", "locB");
    Add(r, "e2", Minutes(10), "r1", "locB");
    Add(r, "e2", Minutes(100), "readerX", "locC");
    ASSERT_TRUE(r->BuildIndex("rtime").ok());
    ASSERT_TRUE(r->BuildIndex("epc").ok());
    r->ComputeStats();

    Schema locs;
    locs.AddColumn("gln", DataType::kString);
    locs.AddColumn("site", DataType::kString);
    locs.AddColumn("loc_desc", DataType::kString);
    Table* l = db_.CreateTable("locs", locs).value();
    ASSERT_TRUE(l->Append({Value::String("locA"), Value::String("dc1"),
                           Value::String("dock door A")})
                    .ok());
    ASSERT_TRUE(l->Append({Value::String("locB"), Value::String("dc1"),
                           Value::String("dock door B")})
                    .ok());
    ASSERT_TRUE(l->Append({Value::String("locC"), Value::String("store7"),
                           Value::String("shelf C")})
                    .ok());
    l->ComputeStats();
  }

  void Add(Table* t, const std::string& epc, int64_t rtime,
           const std::string& reader, const std::string& loc) {
    ASSERT_TRUE(t->Append({Value::String(epc), Value::Timestamp(rtime),
                           Value::String(reader), Value::String(loc)})
                    .ok());
  }

  QueryResult MustRun(const std::string& sql) {
    auto r = ExecuteSql(db_, sql);
    EXPECT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    return r.ok() ? std::move(r).value() : QueryResult{};
  }

  Database db_;
};

TEST_F(PlannerTest, SelectStarWithPredicate) {
  QueryResult res = MustRun(
      "select * from caseR where rtime <= TIMESTAMP " +
      std::to_string(Minutes(10)));
  EXPECT_EQ(res.rows.size(), 3u);
  // Sargable predicate on an indexed column => index range scan.
  EXPECT_NE(res.explain.find("IndexRangeScan"), std::string::npos) << res.explain;
}

TEST_F(PlannerTest, NonSargablePredicateFullScans) {
  QueryResult res = MustRun("select * from caseR where reader = 'readerX'");
  EXPECT_EQ(res.rows.size(), 1u);
  EXPECT_NE(res.explain.find("TableScan"), std::string::npos);
}

TEST_F(PlannerTest, ProjectionAndExpressions) {
  QueryResult res = MustRun(
      "select epc, rtime + 5 minutes as bumped from caseR where epc = 'e2'");
  ASSERT_EQ(res.rows.size(), 2u);
  EXPECT_EQ(res.desc.field(1).name, "bumped");
  EXPECT_EQ(res.rows[0][1].timestamp_value(), Minutes(15));
}

TEST_F(PlannerTest, JoinWithDimensionTable) {
  QueryResult res = MustRun(
      "select c.epc, l.site from caseR c, locs l "
      "where c.biz_loc = l.gln and l.site = 'dc1'");
  EXPECT_EQ(res.rows.size(), 4u);  // locC read excluded
  EXPECT_NE(res.explain.find("HashJoin"), std::string::npos);
}

TEST_F(PlannerTest, TwoJoinsSameTableDifferentAliases) {
  QueryResult res = MustRun(
      "select l1.loc_desc, l2.loc_desc from caseR c, locs l1, locs l2 "
      "where c.biz_loc = l1.gln and c.biz_loc = l2.gln and c.epc = 'e1'");
  EXPECT_EQ(res.rows.size(), 3u);
}

TEST_F(PlannerTest, GroupByWithAggregates) {
  QueryResult res = MustRun(
      "select epc, count(*) as n, count(distinct biz_loc) as locs "
      "from caseR group by epc");
  ASSERT_EQ(res.rows.size(), 2u);
  // Group order is first-seen: e1 first.
  EXPECT_EQ(res.rows[0][0].string_value(), "e1");
  EXPECT_EQ(res.rows[0][1].int64_value(), 3);
  EXPECT_EQ(res.rows[0][2].int64_value(), 2);
  EXPECT_EQ(res.rows[1][2].int64_value(), 2);
}

TEST_F(PlannerTest, GroupByExpressionReusedInSelect) {
  QueryResult res = MustRun(
      "select l.site, count(*) from caseR c, locs l where c.biz_loc = l.gln "
      "group by l.site");
  ASSERT_EQ(res.rows.size(), 2u);
}

TEST_F(PlannerTest, InSubqueryBecomesSemiJoin) {
  QueryResult res = MustRun(
      "select * from caseR where epc in "
      "(select epc from caseR where reader = 'readerX')");
  EXPECT_EQ(res.rows.size(), 2u);  // all of e2's reads
  EXPECT_NE(res.explain.find("HashSemiJoin"), std::string::npos) << res.explain;
}

TEST_F(PlannerTest, NarrowJoinSideRestrictsIndexedColumn) {
  // owner(child, epc): an index narrows owner to a row or two, so caseR is
  // read through its epc index over owner's epc values, not whole.
  Schema schema;
  schema.AddColumn("child", DataType::kString);
  schema.AddColumn("epc", DataType::kString);
  Table* owner = db_.CreateTable("owner", schema).value();
  const std::vector<std::pair<const char*, const char*>> rows = {
      {"c1", "e1"}, {"c2", "e2"}, {"c3", "e1"}, {"c3", "e2"}};
  for (const auto& [child, epc] : rows) {
    ASSERT_TRUE(owner->Append({Value::String(child), Value::String(epc)}).ok());
  }
  ASSERT_TRUE(owner->BuildIndex("child").ok());
  owner->ComputeStats();
  auto run = [&](const std::string& child) {
    return MustRun(
        "SELECT caseR.rtime FROM caseR, owner WHERE caseR.epc = owner.epc "
        "AND owner.child = '" + child + "'");
  };
  QueryResult one = run("c2");
  EXPECT_EQ(one.rows.size(), 2u);
  EXPECT_NE(one.explain.find("IndexRangeScan [caseR ON epc >= e2 <= e2]"),
            std::string::npos)
      << one.explain;
  // Two owner rows: the range spans both values and the set filters it.
  EXPECT_EQ(run("c3").rows.size(), 5u);
  // No owner row: nothing joins, whatever access path was taken.
  EXPECT_EQ(run("c9").rows.size(), 0u);
}

TEST_F(PlannerTest, UnionAll) {
  QueryResult res = MustRun(
      "select epc from caseR where epc = 'e1' "
      "union all select epc from caseR where epc = 'e2'");
  EXPECT_EQ(res.rows.size(), 5u);
}

TEST_F(PlannerTest, DistinctAndOrderBy) {
  QueryResult res = MustRun(
      "select distinct biz_loc from caseR order by biz_loc desc");
  ASSERT_EQ(res.rows.size(), 3u);
  EXPECT_EQ(res.rows[0][0].string_value(), "locC");
  EXPECT_EQ(res.rows[2][0].string_value(), "locA");
}

TEST_F(PlannerTest, WindowLagInWithClause) {
  // The duplicate-detection pattern from Section 4.1 of the paper.
  QueryResult res = MustRun(
      "with v1 as ( "
      "  select epc, rtime, biz_loc as loc_current, "
      "    max(biz_loc) over (partition by epc order by rtime asc "
      "      rows between 1 preceding and 1 preceding) as loc_before "
      "  from caseR) "
      "select * from v1 "
      "where loc_current <> loc_before or loc_before is null");
  // e1: first read kept, dup dropped, locB kept. e2: both kept. => 4 rows.
  EXPECT_EQ(res.rows.size(), 4u);
}

TEST_F(PlannerTest, WindowOrderSharingSkipsSecondSort) {
  // Two window expressions with the same (partition, order): one sort.
  QueryResult res = MustRun(
      "select epc, rtime, "
      "  max(rtime) over (partition by epc order by rtime "
      "    rows between 1 preceding and 1 preceding) as prev_time, "
      "  max(biz_loc) over (partition by epc order by rtime "
      "    rows between 1 preceding and 1 preceding) as prev_loc "
      "from caseR");
  ASSERT_EQ(res.rows.size(), 5u);
  size_t first = res.explain.find("Sort");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(res.explain.find("Sort", first + 1), std::string::npos)
      << "expected exactly one Sort:\n"
      << res.explain;
}

TEST_F(PlannerTest, WindowRangeFrameCountsTrailingReads) {
  QueryResult res = MustRun(
      "select epc, rtime, "
      "  max(case when reader = 'readerX' then 1 else 0 end) over "
      "    (partition by epc order by rtime "
      "     range between 1 microseconds following and 15 minutes following) "
      "  as has_readerx_after "
      "from caseR");
  ASSERT_EQ(res.rows.size(), 5u);
  // e2@10m is not within 15m of the readerX read at 100m... verify values.
  // Sorted output: e1@0, e1@2m, e1@90m, e2@10m, e2@100m.
  EXPECT_EQ(res.rows[0][2].int64_value(), 0);
  EXPECT_TRUE(res.rows[2][2].is_null());  // no following rows
  EXPECT_EQ(res.rows[3][2].int64_value(), 0);
}

TEST_F(PlannerTest, AvgDwellQueryShape) {
  // Miniature of benchmark query q1.
  QueryResult res = MustRun(
      "with v1 as ( "
      "  select biz_loc as current_loc, rtime, "
      "    max(rtime) over (partition by epc order by rtime "
      "      rows between 1 preceding and 1 preceding) as prev_time, "
      "    max(biz_loc) over (partition by epc order by rtime "
      "      rows between 1 preceding and 1 preceding) as prev_loc "
      "  from caseR) "
      "select l1.loc_desc, l2.loc_desc, avg(rtime - prev_time) "
      "from v1, locs l1, locs l2 "
      "where v1.prev_loc = l1.gln and v1.current_loc = l2.gln "
      "group by l1.loc_desc, l2.loc_desc");
  // Transitions: e1 locA->locA, locA->locB; e2 locB->locC. 3 groups.
  ASSERT_EQ(res.rows.size(), 3u);
}

TEST_F(PlannerTest, CteReferencedWithPredicate) {
  QueryResult res = MustRun(
      "with v as (select epc, rtime from caseR) "
      "select * from v where rtime > TIMESTAMP " +
      std::to_string(Minutes(50)));
  EXPECT_EQ(res.rows.size(), 2u);
}

TEST_F(PlannerTest, ConstantFoldingFreePredicates) {
  QueryResult res = MustRun("select * from caseR where 1 = 1");
  EXPECT_EQ(res.rows.size(), 5u);
  res = MustRun("select * from caseR where 1 = 2");
  EXPECT_EQ(res.rows.size(), 0u);
}

TEST_F(PlannerTest, ErrorsSurfaceCleanly) {
  EXPECT_FALSE(ExecuteSql(db_, "select * from nope").ok());
  EXPECT_FALSE(ExecuteSql(db_, "select bogus_col from caseR").ok());
  EXPECT_FALSE(ExecuteSql(db_, "select epc from caseR, locs").ok());  // cross product
  EXPECT_FALSE(ExecuteSql(db_, "select c.epc from caseR c, caseR c "
                               "where c.epc = c.epc").ok());  // dup alias
}

TEST_F(PlannerTest, CostEstimatesOrderSensibly) {
  // A highly selective query should cost less than a full-table one.
  auto narrow = PlanSql(db_, "select * from caseR where rtime <= TIMESTAMP 1");
  auto wide = PlanSql(db_, "select * from caseR");
  ASSERT_TRUE(narrow.ok());
  ASSERT_TRUE(wide.ok());
  EXPECT_LT(narrow->estimated_cost, wide->estimated_cost);
}

}  // namespace
}  // namespace rfid
