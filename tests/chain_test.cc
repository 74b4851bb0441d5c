// Unit tests for the cleansing-chain builder: WITH-clause structure,
// derived-input substitution, filter pushdown into each arm of a derived
// input, table-reference replacement.
#include <gtest/gtest.h>

#include "cleansing/chain.h"
#include "cleansing/rule_parser.h"
#include "common/time_util.h"
#include "plan/planner.h"
#include "sql/parser.h"
#include "sql/render.h"

namespace rfid {
namespace {

class ChainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema reads;
    reads.AddColumn("epc", DataType::kString);
    reads.AddColumn("rtime", DataType::kTimestamp);
    reads.AddColumn("reader", DataType::kString);
    reads.AddColumn("biz_loc", DataType::kString);
    case_r_ = db_.CreateTable("caseR", reads).value();
    pallet_r_ = db_.CreateTable("palletR", reads).value();
    Schema parent;
    parent.AddColumn("child_epc", DataType::kString);
    parent.AddColumn("parent_epc", DataType::kString);
    ASSERT_TRUE(db_.CreateTable("parent", parent).ok());
  }

  CleansingRule Rule(const std::string& text) {
    auto r = ParseRule(text);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value() : CleansingRule{};
  }

  Database db_;
  Table* case_r_ = nullptr;
  Table* pallet_r_ = nullptr;
};

TEST_F(ChainTest, SingleRuleTwoStages) {
  CleansingRule dup = Rule(
      "DEFINE dup ON caseR CLUSTER BY epc SEQUENCE BY rtime AS (A, B) "
      "WHERE A.biz_loc = B.biz_loc ACTION DELETE B");
  auto chain = BuildCleansingChain({&dup}, db_, "__in",
                                   case_r_->schema().columns());
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  ASSERT_EQ(chain->with_clauses.size(), 2u);
  EXPECT_EQ(chain->with_clauses[0].first, "__r0_w");
  EXPECT_EQ(chain->with_clauses[1].first, "__r0");
  EXPECT_EQ(chain->output_name, "__r0");
  // First stage reads the caller's input clause.
  EXPECT_NE(chain->with_clauses[0].second.find("FROM __in"), std::string::npos);
  // Second stage reads the first.
  EXPECT_NE(chain->with_clauses[1].second.find("FROM __r0_w"), std::string::npos);
}

TEST_F(ChainTest, RulesChainInOrder) {
  CleansingRule r1 = Rule(
      "DEFINE a ON caseR CLUSTER BY epc SEQUENCE BY rtime AS (A, B) "
      "WHERE A.biz_loc = B.biz_loc ACTION DELETE B");
  CleansingRule r2 = Rule(
      "DEFINE b ON caseR CLUSTER BY epc SEQUENCE BY rtime AS (A, B) "
      "WHERE A.reader = B.reader ACTION DELETE B");
  auto chain = BuildCleansingChain({&r1, &r2}, db_, "__in",
                                   case_r_->schema().columns());
  ASSERT_TRUE(chain.ok());
  ASSERT_EQ(chain->with_clauses.size(), 4u);
  // Second rule's window stage reads the first rule's output.
  EXPECT_NE(chain->with_clauses[2].second.find("FROM __r0"), std::string::npos);
  EXPECT_EQ(chain->output_name, "__r1");
}

TEST_F(ChainTest, DerivedInputSubstitutesOnTable) {
  CleansingRule missing = Rule(
      "DEFINE m ON caseR "
      "FROM (select epc, rtime, reader, biz_loc, 0 as is_pallet from caseR "
      "      union all "
      "      select parent.child_epc as epc, palletR.rtime, palletR.reader, "
      "             palletR.biz_loc, 1 as is_pallet "
      "      from palletR, parent where palletR.epc = parent.parent_epc) "
      "CLUSTER BY epc SEQUENCE BY rtime AS (A, *B) "
      "WHERE A.is_pallet = 0 OR B.is_pallet = 1 ACTION KEEP A");
  auto chain = BuildCleansingChain({&missing}, db_, "__in",
                                   case_r_->schema().columns());
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  // A derived-input clause precedes the rule stages, with caseR replaced
  // by the restricted input but palletR untouched.
  ASSERT_GE(chain->with_clauses.size(), 3u);
  const std::string& derived = chain->with_clauses[0].second;
  EXPECT_EQ(chain->with_clauses[0].first, "__rin0");
  EXPECT_NE(derived.find("FROM __in"), std::string::npos) << derived;
  EXPECT_EQ(derived.find("FROM caseR"), std::string::npos) << derived;
  EXPECT_NE(derived.find("palletR"), std::string::npos) << derived;
  // Output schema gained is_pallet.
  bool has_flag = false;
  for (const Column& c : chain->output_columns) {
    if (c.name == "is_pallet") has_flag = true;
  }
  EXPECT_TRUE(has_flag);
}

TEST_F(ChainTest, DerivedFilterPushedIntoEachArm) {
  CleansingRule missing = Rule(
      "DEFINE m ON caseR "
      "FROM (select epc, rtime, reader, biz_loc, 0 as is_pallet from caseR "
      "      union all "
      "      select parent.child_epc as epc, palletR.rtime, palletR.reader, "
      "             palletR.biz_loc, 1 as is_pallet "
      "      from palletR, parent where palletR.epc = parent.parent_epc) "
      "CLUSTER BY epc SEQUENCE BY rtime AS (A, *B) "
      "WHERE A.is_pallet = 0 OR B.is_pallet = 1 ACTION KEEP A");
  auto filter = ParseExpression(
      "epc = 'e1' AND rtime >= TIMESTAMP 42 AND is_pallet = 1 AND "
      "epc IN (SELECT epc FROM __keys)");
  ASSERT_TRUE(filter.ok()) << filter.status().ToString();
  auto chain = BuildCleansingChain({&missing}, db_, "__in",
                                   case_r_->schema().columns(), *filter);
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  // No filter stage after the union: the rule's first stage reads __rin0.
  ASSERT_GE(chain->with_clauses.size(), 3u);
  EXPECT_EQ(chain->with_clauses[0].first, "__rin0");
  EXPECT_NE(chain->with_clauses[1].second.find("FROM __rin0"),
            std::string::npos);
  for (const auto& clause : chain->with_clauses) {
    EXPECT_EQ(clause.first.find("__rinf"), std::string::npos) << clause.first;
  }
  // Each arm carries the filter with its own projected expressions; the
  // IN-subquery is kept intact.
  const std::string& derived = chain->with_clauses[0].second;
  EXPECT_NE(derived.find("FROM __in caseR WHERE epc = 'e1' AND rtime >= "
                         "TIMESTAMP 42 AND 0 = 1 AND epc IN (SELECT epc "
                         "FROM __keys)"),
            std::string::npos)
      << derived;
  EXPECT_NE(derived.find("WHERE palletR.epc = parent.parent_epc AND "
                         "parent.child_epc = 'e1' AND palletR.rtime >= "
                         "TIMESTAMP 42 AND 1 = 1 AND parent.child_epc IN "
                         "(SELECT epc FROM __keys)"),
            std::string::npos)
      << derived;
}

TEST_F(ChainTest, DerivedFilterAfterUnionWhenArmsCannotTakeIt) {
  // A `*` arm has no per-column expression to substitute, so the filter
  // is applied to the union's output instead.
  CleansingRule missing = Rule(
      "DEFINE m ON caseR FROM (select * from caseR) "
      "CLUSTER BY epc SEQUENCE BY rtime AS (A, B) "
      "WHERE A.biz_loc = B.biz_loc ACTION DELETE B");
  auto filter = ParseExpression("rtime >= TIMESTAMP 42");
  ASSERT_TRUE(filter.ok());
  auto chain = BuildCleansingChain({&missing}, db_, "__in",
                                   case_r_->schema().columns(), *filter);
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  ASSERT_GE(chain->with_clauses.size(), 3u);
  EXPECT_EQ(chain->with_clauses[0].second, "SELECT * FROM __in caseR");
  EXPECT_EQ(chain->with_clauses[1].first, "__rinf0");
  EXPECT_NE(chain->with_clauses[1].second.find("WHERE rtime >= TIMESTAMP 42"),
            std::string::npos);
  EXPECT_NE(chain->with_clauses[2].second.find("FROM __rinf0"),
            std::string::npos);
}

TEST_F(ChainTest, PushFilterRefusesRowsItCannotFilter) {
  auto filter = ParseExpression("epc = 'e1'").value();
  for (const char* sql :
       {"SELECT epc, max(rtime) AS rtime FROM caseR GROUP BY epc",
        "SELECT epc, rtime FROM caseR LIMIT 3",
        "SELECT reader, rtime FROM caseR",  // no output column named epc
        "SELECT epc, max(rtime) OVER (PARTITION BY epc) AS rtime FROM caseR"}) {
    StatementPtr stmt = ParseSql(sql).value();
    const std::string before = StatementToSql(*stmt);
    EXPECT_FALSE(PushFilterIntoCores(stmt.get(), filter)) << sql;
    EXPECT_EQ(StatementToSql(*stmt), before);
  }
  StatementPtr ok =
      ParseSql("SELECT DISTINCT epc AS epc FROM caseR WHERE rtime > "
               "TIMESTAMP 1")
          .value();
  EXPECT_TRUE(PushFilterIntoCores(ok.get(), filter));
  EXPECT_EQ(StatementToSql(*ok),
            "SELECT DISTINCT epc AS epc FROM caseR WHERE rtime > TIMESTAMP 1 "
            "AND epc = 'e1'");
}

TEST_F(ChainTest, ReplaceTableRefsKeepsAliasAndHitsSubqueries) {
  auto stmt = ParseSql(
                  "WITH v AS (SELECT * FROM caseR WHERE epc IN "
                  "(SELECT epc FROM caseR WHERE reader = 'x')) "
                  "SELECT c.epc FROM caseR c, v WHERE c.epc = v.epc")
                  .value();
  ReplaceTableRefs(stmt.get(), "caseR", "__clean");
  std::string sql = StatementToSql(*stmt);
  EXPECT_EQ(sql.find("FROM caseR"), std::string::npos) << sql;
  // The explicit alias 'c' survives so predicates keep resolving.
  EXPECT_NE(sql.find("__clean c,"), std::string::npos) << sql;
  // References without an explicit alias keep the old name as their alias
  // (so old qualified predicates still bind) — including inside the
  // IN-subquery.
  EXPECT_NE(sql.find("(SELECT epc FROM __clean caseR WHERE reader = 'x')"),
            std::string::npos)
      << sql;
}

TEST_F(ChainTest, ChainExecutesEndToEnd) {
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(case_r_
                    ->Append({Value::String("e"), Value::Timestamp(Minutes(i)),
                              Value::String("r"), Value::String("L")})
                    .ok());
  }
  CleansingRule dup = Rule(
      "DEFINE dup ON caseR CLUSTER BY epc SEQUENCE BY rtime AS (A, B) "
      "WHERE A.biz_loc = B.biz_loc AND B.rtime - A.rtime < 5 MINUTES "
      "ACTION DELETE B");
  auto chain = BuildCleansingChain({&dup}, db_, "__in",
                                   case_r_->schema().columns());
  ASSERT_TRUE(chain.ok());
  std::string sql = "WITH __in AS (SELECT * FROM caseR)";
  for (const auto& [name, body] : chain->with_clauses) {
    sql += ", " + name + " AS (" + body + ")";
  }
  sql += " SELECT count(*) FROM " + chain->output_name;
  auto res = ExecuteSql(db_, sql);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->rows[0][0].int64_value(), 1);  // chain of duplicates collapses
}

}  // namespace
}  // namespace rfid
