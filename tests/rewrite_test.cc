// Tests for the rewrite engine: the motivation examples of Section 5.1
// (Figure 3), correlation/transitivity analysis, expanded and join-back
// correctness against naive cleansing, feasibility (Table 1 shape), join
// handling and multi-rule composition.
#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "common/time_util.h"
#include "plan/planner.h"
#include "rewrite/correlation.h"
#include "rewrite/rewriter.h"
#include "rewrite/transitivity.h"
#include "rfidgen/rfidgen.h"
#include "rfidgen/workload.h"
#include "sql/parser.h"
#include "sql/render.h"

namespace rfid {
namespace {

std::string Ts(int64_t micros) { return "TIMESTAMP " + std::to_string(micros); }

// Sorts rows to compare result sets order-insensitively.
std::vector<std::string> Canonical(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const Row& r : rows) {
    std::string s;
    for (const Value& v : r) s += v.ToString() + "|";
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

class RewriteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema reads;
    reads.AddColumn("epc", DataType::kString);
    reads.AddColumn("rtime", DataType::kTimestamp);
    reads.AddColumn("reader", DataType::kString);
    reads.AddColumn("biz_loc", DataType::kString);
    case_r_ = db_.CreateTable("caseR", reads).value();

    Schema locs;
    locs.AddColumn("gln", DataType::kString);
    locs.AddColumn("site", DataType::kString);
    locs_ = db_.CreateTable("locs", locs).value();

    engine_ = std::make_unique<CleansingRuleEngine>(&db_);
    rewriter_ = std::make_unique<QueryRewriter>(&db_, engine_.get());
  }

  void AddRead(const std::string& epc, int64_t rtime, const std::string& reader,
               const std::string& loc) {
    ASSERT_TRUE(case_r_
                    ->Append({Value::String(epc), Value::Timestamp(rtime),
                              Value::String(reader), Value::String(loc)})
                    .ok());
  }

  void Finalize() {
    ASSERT_TRUE(case_r_->BuildIndex("rtime").ok());
    ASSERT_TRUE(case_r_->BuildIndex("epc").ok());
    case_r_->ComputeStats();
    locs_->ComputeStats();
  }

  void DefineReaderRule(int64_t window_minutes = 5) {
    ASSERT_TRUE(engine_
                    ->DefineRule(StrFormat(
                        "DEFINE reader ON caseR CLUSTER BY epc SEQUENCE BY "
                        "rtime AS (A, *B) WHERE B.reader = 'readerX' AND "
                        "B.rtime - A.rtime < %lld MINUTES ACTION DELETE A",
                        static_cast<long long>(window_minutes)))
                    .ok());
  }

  void DefineDuplicateNoTimeRule() {
    // Figure 3(b)'s C2: duplicate without the time constraint.
    ASSERT_TRUE(engine_
                    ->DefineRule("DEFINE dup ON caseR CLUSTER BY epc SEQUENCE "
                                 "BY rtime AS (E, F) WHERE E.biz_loc = "
                                 "F.biz_loc ACTION DELETE F")
                    .ok());
  }

  QueryResult Run(const std::string& sql) {
    auto res = ExecuteSql(db_, sql);
    EXPECT_TRUE(res.ok()) << sql << "\n" << res.status().ToString();
    return res.ok() ? std::move(res).value() : QueryResult{};
  }

  RewriteInfo MustRewrite(const std::string& sql, RewriteStrategy strategy) {
    RewriteOptions opts;
    opts.strategy = strategy;
    auto r = rewriter_->Rewrite(sql, opts);
    EXPECT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    return r.ok() ? std::move(r).value() : RewriteInfo{};
  }

  // Checks that a strategy produces the same rows as the naive rewrite.
  void ExpectMatchesNaive(const std::string& sql, RewriteStrategy strategy) {
    RewriteInfo naive = MustRewrite(sql, RewriteStrategy::kNaive);
    RewriteInfo other = MustRewrite(sql, strategy);
    QueryResult naive_res = Run(naive.sql);
    QueryResult other_res = Run(other.sql);
    EXPECT_EQ(Canonical(naive_res.rows), Canonical(other_res.rows))
        << "strategy " << RewriteStrategyName(strategy)
        << " diverged from naive.\nnaive sql: " << naive.sql
        << "\nother sql: " << other.sql;
  }

  Database db_;
  Table* case_r_ = nullptr;
  Table* locs_ = nullptr;
  std::unique_ptr<CleansingRuleEngine> engine_;
  std::unique_ptr<QueryRewriter> rewriter_;
};

// --- Section 5.1, Figure 3(a): rule C1 / query Q1 ---

TEST_F(RewriteTest, Figure3aDirectPushdownWouldBeWrong) {
  // R1 = { (e1, t1-2min, readerY), (e1, t1+2min, readerX) }, t1 = 60min.
  const int64_t t1 = Minutes(60);
  AddRead("e1", t1 - Minutes(2), "readerY", "locA");
  AddRead("e1", t1 + Minutes(2), "readerX", "locB");
  Finalize();
  DefineReaderRule(5);

  // Direct pushdown (clean only rows with rtime < t1) wrongly keeps r1.
  std::string pushdown =
      "WITH __wrong AS (SELECT * FROM caseR WHERE rtime < " + Ts(t1) + ") " +
      "SELECT * FROM __wrong";
  // (Cleansing applied to the pushed-down set: emulate by rewriting a
  // query over a fake table is unnecessary — the paper's point is that
  // the correct answer is empty while pushdown yields r1.)
  QueryResult wrong = Run(pushdown);
  EXPECT_EQ(wrong.rows.size(), 1u);  // r1 survives in the pushed-down set

  // The rewritten query (any strategy) returns the correct empty answer.
  std::string q1 = "SELECT * FROM caseR WHERE rtime < " + Ts(t1);
  for (RewriteStrategy s : {RewriteStrategy::kNaive, RewriteStrategy::kExpanded,
                            RewriteStrategy::kJoinBack}) {
    RewriteInfo info = MustRewrite(q1, s);
    QueryResult res = Run(info.sql);
    EXPECT_EQ(res.rows.size(), 0u) << RewriteStrategyName(s) << "\n" << info.sql;
  }
}

TEST_F(RewriteTest, Figure3cExpandedConditionShape) {
  AddRead("e1", Minutes(10), "readerY", "locA");
  Finalize();
  DefineReaderRule(5);
  const int64_t t1 = Minutes(60);
  std::string q1 = "SELECT * FROM caseR WHERE rtime < " + Ts(t1);
  RewriteInfo info = MustRewrite(q1, RewriteStrategy::kExpanded);

  // cc1: B.rtime < t1 + 5 min && B.reader = 'readerX' (Figure 3(c)).
  ASSERT_EQ(info.contexts.size(), 1u);
  ASSERT_TRUE(info.contexts[0].feasible);
  std::string cc = RenderExpr(info.contexts[0].context_condition);
  EXPECT_NE(cc.find("reader = 'readerX'"), std::string::npos) << cc;
  EXPECT_NE(cc.find("rtime <"), std::string::npos) << cc;

  // Relaxed form: rtime < t1 + 5 min.
  ASSERT_NE(info.relaxed_condition, nullptr);
  std::string relaxed = RenderExpr(info.relaxed_condition);
  EXPECT_NE(relaxed.find(std::to_string(t1 + Minutes(5) - 1)), std::string::npos)
      << relaxed;
}

// --- Section 5.1, Figure 3(b)(d): rule C2 / query Q2 ---

TEST_F(RewriteTest, Figure3dExpandedInfeasibleForUnboundedDuplicate) {
  // r3/r4 both at locZ, far apart; C2 has no time bound.
  const int64_t t2 = Minutes(60);
  AddRead("e2", t2 - Minutes(2), "r", "locZ");
  AddRead("e2", t2 + Minutes(2), "r", "locZ");
  Finalize();
  DefineDuplicateNoTimeRule();

  std::string q2 = "SELECT * FROM caseR WHERE rtime > " + Ts(t2);
  // Expanded must be infeasible (Figure 3(d): no conjuncts derivable on E).
  RewriteOptions opts;
  opts.strategy = RewriteStrategy::kExpanded;
  auto r = rewriter_->Rewrite(q2, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kRewriteInfeasible);

  // Join-back gives the correct (empty) answer: r4 is a duplicate of r3.
  RewriteInfo jb = MustRewrite(q2, RewriteStrategy::kJoinBack);
  QueryResult res = Run(jb.sql);
  EXPECT_EQ(res.rows.size(), 0u) << jb.sql;

  // Auto falls back to join-back.
  RewriteInfo auto_info = MustRewrite(q2, RewriteStrategy::kAuto);
  EXPECT_EQ(auto_info.chosen, RewriteStrategy::kJoinBack);
}

TEST_F(RewriteTest, JoinBackKeepsWholeSequences) {
  // Sequences: e1 has a read in the query window, e2 does not. Join-back
  // must cleanse all of e1 and none of e2.
  const int64_t t2 = Minutes(60);
  AddRead("e1", Minutes(10), "r", "locA");
  AddRead("e1", t2 + Minutes(5), "r", "locA");  // duplicate of the first
  AddRead("e2", Minutes(20), "r", "locB");
  Finalize();
  DefineDuplicateNoTimeRule();

  std::string q = "SELECT * FROM caseR WHERE rtime > " + Ts(t2);
  RewriteInfo jb = MustRewrite(q, RewriteStrategy::kJoinBack);
  QueryResult res = Run(jb.sql);
  // e1's second read is a duplicate (same loc as @10min) -> removed; the
  // correct answer is empty.
  EXPECT_EQ(res.rows.size(), 0u) << jb.sql;
}

// --- correctness: every strategy equals naive on varied data ---

class RewriteEquivalenceTest : public RewriteTest,
                               public ::testing::WithParamInterface<int> {};

TEST_P(RewriteEquivalenceTest, StrategiesAgreeOnRandomishData) {
  // Deterministic pseudo-random data seeded by the parameter.
  Random rng(static_cast<uint64_t>(GetParam()));
  const char* locs[] = {"locA", "locB", "locC", "loc2"};
  const char* readers[] = {"r1", "r2", "readerX"};
  for (int e = 0; e < 8; ++e) {
    std::string epc = "e" + std::to_string(e);
    int64_t t = static_cast<int64_t>(rng.Uniform(100)) * Minutes(1);
    int reads = 3 + static_cast<int>(rng.Uniform(6));
    for (int i = 0; i < reads; ++i) {
      AddRead(epc, t, readers[rng.Uniform(3)], locs[rng.Uniform(4)]);
      t += Minutes(1 + static_cast<int64_t>(rng.Uniform(90)));
    }
  }
  Finalize();
  DefineReaderRule(10);
  ASSERT_TRUE(engine_
                  ->DefineRule("DEFINE dup ON caseR CLUSTER BY epc SEQUENCE BY "
                               "rtime AS (A, B) WHERE A.biz_loc = B.biz_loc AND "
                               "B.rtime - A.rtime < 5 MINUTES ACTION DELETE B")
                  .ok());

  std::string q = "SELECT epc, rtime, biz_loc FROM caseR WHERE rtime <= " +
                  Ts(Minutes(240));
  ExpectMatchesNaive(q, RewriteStrategy::kExpanded);
  ExpectMatchesNaive(q, RewriteStrategy::kJoinBack);
  ExpectMatchesNaive(q, RewriteStrategy::kAuto);

  std::string q_lower = "SELECT epc, rtime FROM caseR WHERE rtime >= " +
                        Ts(Minutes(120));
  ExpectMatchesNaive(q_lower, RewriteStrategy::kExpanded);
  ExpectMatchesNaive(q_lower, RewriteStrategy::kJoinBack);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewriteEquivalenceTest,
                         ::testing::Range(1, 9));

// --- joins ---

TEST_F(RewriteTest, JoinQueryCandidatesAndCorrectness) {
  ASSERT_TRUE(locs_->Append({Value::String("locA"), Value::String("dc1")}).ok());
  ASSERT_TRUE(locs_->Append({Value::String("locB"), Value::String("store1")}).ok());
  ASSERT_TRUE(locs_->Append({Value::String("locC"), Value::String("store1")}).ok());
  AddRead("e1", Minutes(1), "r1", "locA");
  AddRead("e1", Minutes(3), "readerX", "locA");  // kills the 1min read
  AddRead("e1", Minutes(50), "r1", "locB");
  AddRead("e2", Minutes(5), "r1", "locC");
  Finalize();
  DefineReaderRule(5);

  std::string q =
      "SELECT c.epc, c.rtime, l.site FROM caseR c, locs l "
      "WHERE c.biz_loc = l.gln AND c.rtime <= " + Ts(Minutes(60)) +
      " AND l.site = 'store1'";
  RewriteInfo info = MustRewrite(q, RewriteStrategy::kAuto);
  // Candidates must include the semi-join pushdown variants.
  bool has_semijoin_variant = false;
  for (const RewriteCandidate& c : info.candidates) {
    if (c.label.find("semijoins") != std::string::npos) has_semijoin_variant = true;
  }
  EXPECT_TRUE(has_semijoin_variant);

  QueryResult res = Run(info.sql);
  // Expected: e1@50(locB,store1), e2@5(locC,store1). e1@1min is cleansed
  // but was at dc1 anyway; readerX read is at dc1.
  ASSERT_EQ(res.rows.size(), 2u) << info.sql;

  ExpectMatchesNaive(q, RewriteStrategy::kExpanded);
  ExpectMatchesNaive(q, RewriteStrategy::kJoinBack);
}

TEST_F(RewriteTest, QueryInsideWithClauseIsRewritten) {
  AddRead("e1", Minutes(1), "r1", "locA");
  AddRead("e1", Minutes(3), "readerX", "locB");
  Finalize();
  DefineReaderRule(5);
  std::string q =
      "WITH v1 AS (SELECT epc, rtime, biz_loc FROM caseR WHERE rtime <= " +
      Ts(Minutes(90)) + ") SELECT * FROM v1 WHERE biz_loc = 'locA'";
  RewriteInfo info = MustRewrite(q, RewriteStrategy::kAuto);
  EXPECT_NE(info.chosen, RewriteStrategy::kNone);
  QueryResult res = Run(info.sql);
  EXPECT_EQ(res.rows.size(), 0u);  // the locA read is deleted by the rule
}

TEST_F(RewriteTest, NoPredicateQueryCleansesEverything) {
  // SELECT with no restriction on the reads table: s is TRUE, so the
  // expanded condition degenerates to TRUE — the rewrite must cleanse the
  // unrestricted input, not filter it down to the context regions
  // (regression: ec used to collapse to the cc disjuncts alone).
  AddRead("e1", Minutes(0), "r1", "locA");
  AddRead("e1", Minutes(60), "r2", "locB");
  Finalize();
  DefineReaderRule(5);
  for (RewriteStrategy s : {RewriteStrategy::kExpanded,
                            RewriteStrategy::kJoinBack, RewriteStrategy::kAuto}) {
    RewriteInfo info = MustRewrite("SELECT * FROM caseR", s);
    QueryResult res = Run(info.sql);
    EXPECT_EQ(res.rows.size(), 2u) << RewriteStrategyName(s) << "\n" << info.sql;
  }
}

TEST_F(RewriteTest, QueryWithoutRulesPassesThrough) {
  AddRead("e1", Minutes(1), "r1", "locA");
  Finalize();
  // No rules defined.
  auto info = rewriter_->Rewrite("SELECT * FROM caseR");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->chosen, RewriteStrategy::kNone);
  EXPECT_EQ(info->sql, "SELECT * FROM caseR");
}

TEST_F(RewriteTest, RuleFreeTableUnaffectedByOtherRules) {
  AddRead("e1", Minutes(1), "r1", "locA");
  ASSERT_TRUE(locs_->Append({Value::String("locA"), Value::String("dc1")}).ok());
  Finalize();
  DefineReaderRule(5);
  auto info = rewriter_->Rewrite("SELECT * FROM locs");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->chosen, RewriteStrategy::kNone);
}

// --- correlation / transitivity units ---

TEST_F(RewriteTest, CorrelationForReaderRule) {
  Finalize();
  DefineReaderRule(10);
  const CleansingRule* rule = engine_->FindRule("reader");
  ASSERT_NE(rule, nullptr);
  auto corrs = AnalyzeCorrelations(*rule);
  ASSERT_EQ(corrs.size(), 1u);
  const ContextCorrelation& b = corrs[0];
  EXPECT_EQ(b.name, "B");
  EXPECT_FALSE(b.position_based);
  // Implied: epc equality; B after A within (0, 10min).
  ASSERT_EQ(b.equalities.size(), 1u);
  EXPECT_EQ(b.equalities[0].first, "epc");
  ASSERT_TRUE(b.skey_diff_lo.has_value());
  EXPECT_EQ(*b.skey_diff_lo, 1);
  ASSERT_TRUE(b.skey_diff_hi.has_value());
  EXPECT_EQ(*b.skey_diff_hi, Minutes(10) - 1);
  ASSERT_EQ(b.context_only.size(), 1u);  // B.reader = 'readerX'
}

TEST_F(RewriteTest, CorrelationDropsNonPreservingConjuncts) {
  Finalize();
  ASSERT_TRUE(engine_
                  ->DefineRule("DEFINE dup ON caseR CLUSTER BY epc SEQUENCE BY "
                               "rtime AS (A, B) WHERE A.biz_loc = B.biz_loc AND "
                               "B.rtime - A.rtime < 5 MINUTES ACTION DELETE B")
                  .ok());
  auto corrs = AnalyzeCorrelations(*engine_->FindRule("dup"));
  ASSERT_EQ(corrs.size(), 1u);
  const ContextCorrelation& a = corrs[0];
  EXPECT_TRUE(a.position_based);
  // biz_loc equality dropped (Observation 1b); context-only set empty.
  EXPECT_EQ(a.equalities.size(), 1u);  // only the implied epc equality
  EXPECT_TRUE(a.context_only.empty());
  // Time bound kept (toward the target): A - B >= -(5min - 1us).
  ASSERT_TRUE(a.skey_diff_lo.has_value());
  EXPECT_EQ(*a.skey_diff_lo, -(Minutes(5) - 1));
  ASSERT_TRUE(a.skey_diff_hi.has_value());
  EXPECT_EQ(*a.skey_diff_hi, -1);
}

TEST_F(RewriteTest, CycleRuleIsInfeasibleBothDirections) {
  Finalize();
  ASSERT_TRUE(engine_
                  ->DefineRule("DEFINE cycle ON caseR CLUSTER BY epc SEQUENCE "
                               "BY rtime AS (A, B, C) WHERE A.biz_loc = "
                               "C.biz_loc AND A.biz_loc <> B.biz_loc "
                               "ACTION DELETE B")
                  .ok());
  for (const char* cmp : {"<=", ">="}) {
    std::string q = StrFormat("SELECT * FROM caseR WHERE rtime %s %s", cmp,
                              Ts(Minutes(60)).c_str());
    RewriteOptions opts;
    opts.strategy = RewriteStrategy::kExpanded;
    auto r = rewriter_->Rewrite(q, opts);
    EXPECT_FALSE(r.ok()) << cmp;
  }
}

TEST_F(RewriteTest, EqualityPropagationThroughCkey) {
  Finalize();
  DefineReaderRule(5);
  // A predicate on epc (the cluster key) must propagate to the context.
  std::string q = "SELECT * FROM caseR WHERE epc = 'e7'";
  RewriteInfo info = MustRewrite(q, RewriteStrategy::kExpanded);
  ASSERT_EQ(info.contexts.size(), 1u);
  std::string cc = RenderExpr(info.contexts[0].context_condition);
  EXPECT_NE(cc.find("epc = 'e7'"), std::string::npos) << cc;
}

TEST(RewriteFiveRulesTest, LookupExpandedConditionIsTheLookupItself) {
  // Every context reference of every rule derives the lookup's own
  // `epc = X`; the repeats collapse, so the cleansing input is restricted
  // by exactly the one index-usable equality.
  Database db;
  rfidgen::GeneratorOptions gen;
  gen.num_pallets = 2;
  ASSERT_TRUE(rfidgen::Generate(gen, &db).ok());
  CleansingRuleEngine engine(&db);
  for (const std::string& def : workload::StandardRuleDefinitions(5)) {
    ASSERT_TRUE(engine.DefineRule(def).ok()) << def;
  }
  const std::string epc = "urn:epc:cas:000000000001";
  RewriteOptions opts;
  opts.strategy = RewriteStrategy::kExpanded;
  auto info = QueryRewriter(&db, &engine)
                  .Rewrite("SELECT rtime, biz_loc, reader FROM caseR WHERE "
                           "epc = '" + epc + "' ORDER BY rtime",
                           opts);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(RenderExpr(info->expanded_condition), "epc = '" + epc + "'");
  EXPECT_NE(info->sql.find("__cl_input AS (SELECT * FROM caseR WHERE epc = '" +
                           epc + "')"),
            std::string::npos)
      << info->sql;
  // The per-rule diagnostics still show each rule's own context condition.
  ASSERT_EQ(info->contexts.size(), 6u);
  for (const RuleContextInfo& c : info->contexts) {
    EXPECT_TRUE(c.feasible) << c.rule_name;
    EXPECT_NE(RenderExpr(c.context_condition).find("epc = '" + epc + "'"),
              std::string::npos)
        << c.rule_name;
  }
}

}  // namespace
}  // namespace rfid
