// End-to-end integration tests: generated supply-chain data with injected
// anomalies, the paper's five rules, the Figure 6 queries, and all three
// rewrite strategies — expanded and join-back answers must equal naive
// cleansing (Q[C] correctness), and dirty answers must differ.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>

#include "common/string_util.h"
#include "common/time_util.h"
#include "plan/planner.h"
#include "rewrite/rewriter.h"
#include "rfidgen/anomaly.h"
#include "rfidgen/workload.h"
#include "server/admission.h"

namespace rfid {
namespace {

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

// The bound a context condition puts on a timestamp column, as
// `column op anchor + offset` (µs). AND keeps the tighter side, OR the
// looser; comparisons with non-timestamp literals bound nothing.
struct TimeBound {
  std::string column;
  BinaryOp op;
  int64_t offset;
};

bool IsUpper(BinaryOp op) { return op == BinaryOp::kLe || op == BinaryOp::kLt; }

std::optional<TimeBound> Pick(const std::optional<TimeBound>& a,
                              const std::optional<TimeBound>& b, bool looser) {
  if (!a || !b) return looser ? std::nullopt : (a ? a : b);
  EXPECT_EQ(a->column, b->column);
  EXPECT_EQ(a->op, b->op);
  bool a_wider = IsUpper(a->op) ? a->offset > b->offset : a->offset < b->offset;
  return a_wider == looser ? a : b;
}

std::optional<TimeBound> BoundOf(const ExprPtr& e, int64_t anchor) {
  if (e == nullptr || e->kind != ExprKind::kBinary) return std::nullopt;
  if (e->op == BinaryOp::kAnd || e->op == BinaryOp::kOr) {
    return Pick(BoundOf(e->children[0], anchor),
                BoundOf(e->children[1], anchor), e->op == BinaryOp::kOr);
  }
  const ExprPtr& lhs = e->children[0];
  const ExprPtr& rhs = e->children[1];
  if (!IsComparisonOp(e->op) || lhs->kind != ExprKind::kColumnRef ||
      rhs->kind != ExprKind::kLiteral ||
      rhs->value.type() != DataType::kTimestamp) {
    return std::nullopt;
  }
  return TimeBound{lhs->column, e->op, rhs->value.int64_value() - anchor};
}

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rfidgen::GeneratorOptions gen;
    gen.num_pallets = 8;
    gen.min_cases_per_pallet = 3;
    gen.max_cases_per_pallet = 6;
    gen.reads_per_site = 5;
    gen.num_stores = 30;
    gen.num_warehouses = 10;
    gen.num_dcs = 5;
    gen.locations_per_site = 10;
    auto g = rfidgen::Generate(gen, &db_);
    ASSERT_TRUE(g.ok()) << g.status().ToString();

    rfidgen::AnomalyOptions anomalies;
    anomalies.dirty_fraction = 0.15;
    auto a = rfidgen::InjectAnomalies(anomalies, &db_);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    anomaly_stats_ = a.value();

    engine_ = std::make_unique<CleansingRuleEngine>(&db_);
    rewriter_ = std::make_unique<QueryRewriter>(&db_, engine_.get());
  }

  void DefineRules(int count) {
    for (const std::string& def : workload::StandardRuleDefinitions(count)) {
      Status st = engine_->DefineRule(def);
      ASSERT_TRUE(st.ok()) << st.ToString() << "\n" << def;
    }
  }

  QueryResult Run(const std::string& sql) {
    auto res = ExecuteSql(db_, sql);
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    return res.ok() ? std::move(res).value() : QueryResult{};
  }

  RewriteInfo MustRewrite(const std::string& sql, RewriteStrategy strategy) {
    RewriteOptions opts;
    opts.strategy = strategy;
    auto r = rewriter_->Rewrite(sql, opts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value() : RewriteInfo{};
  }

  void ExpectAllStrategiesAgree(const std::string& sql, bool expanded_feasible) {
    RewriteInfo naive = MustRewrite(sql, RewriteStrategy::kNaive);
    QueryResult truth = Run(naive.sql);
    RewriteInfo jb = MustRewrite(sql, RewriteStrategy::kJoinBack);
    QueryResult jb_res = Run(jb.sql);
    EXPECT_EQ(Canonical(truth.rows), Canonical(jb_res.rows)) << "join-back";
    if (expanded_feasible) {
      RewriteInfo ex = MustRewrite(sql, RewriteStrategy::kExpanded);
      QueryResult ex_res = Run(ex.sql);
      EXPECT_EQ(Canonical(truth.rows), Canonical(ex_res.rows)) << "expanded";
    } else {
      RewriteOptions opts;
      opts.strategy = RewriteStrategy::kExpanded;
      EXPECT_FALSE(rewriter_->Rewrite(sql, opts).ok());
    }
  }

  Database db_;
  rfidgen::AnomalyStats anomaly_stats_;
  std::unique_ptr<CleansingRuleEngine> engine_;
  std::unique_ptr<QueryRewriter> rewriter_;
};

TEST_F(IntegrationTest, Q1AllStrategiesAgreeThreeRules) {
  DefineRules(3);
  std::string q1 = workload::Q1(workload::T1ForSelectivity(db_, 0.5));
  ExpectAllStrategiesAgree(q1, /*expanded_feasible=*/true);
}

TEST_F(IntegrationTest, Q1CycleRuleKillsExpanded) {
  DefineRules(4);
  std::string q1 = workload::Q1(workload::T1ForSelectivity(db_, 0.5));
  ExpectAllStrategiesAgree(q1, /*expanded_feasible=*/false);
}

TEST_F(IntegrationTest, Q1AllFiveRules) {
  DefineRules(5);
  std::string q1 = workload::Q1(workload::T1ForSelectivity(db_, 0.5));
  ExpectAllStrategiesAgree(q1, /*expanded_feasible=*/false);
}

TEST_F(IntegrationTest, Q2AllStrategiesAgreeThreeRules) {
  DefineRules(3);
  std::string q2 = workload::Q2(workload::T2ForSelectivity(db_, 0.5), "dc2");
  ExpectAllStrategiesAgree(q2, /*expanded_feasible=*/true);
}

TEST_F(IntegrationTest, Q2AllFiveRules) {
  DefineRules(5);
  std::string q2 = workload::Q2(workload::T2ForSelectivity(db_, 0.5), "dc2");
  ExpectAllStrategiesAgree(q2, /*expanded_feasible=*/false);
}

TEST_F(IntegrationTest, Q2PrimeAgrees) {
  DefineRules(1);
  std::string q = workload::Q2Prime(workload::T2ForSelectivity(db_, 0.4), 3);
  ExpectAllStrategiesAgree(q, /*expanded_feasible=*/true);
}

TEST_F(IntegrationTest, DirtyAnswersDifferFromCleansed) {
  DefineRules(2);
  std::string sql = StrFormat(
      "SELECT count(*) FROM caseR WHERE rtime <= TIMESTAMP %lld",
      static_cast<long long>(workload::T1ForSelectivity(db_, 1.0)));
  QueryResult dirty = Run(sql);
  RewriteInfo naive = MustRewrite(sql, RewriteStrategy::kNaive);
  QueryResult clean = Run(naive.sql);
  ASSERT_EQ(dirty.rows.size(), 1u);
  ASSERT_EQ(clean.rows.size(), 1u);
  EXPECT_GT(dirty.rows[0][0].int64_value(), clean.rows[0][0].int64_value());
}

TEST_F(IntegrationTest, Table1FeasibilityShape) {
  // Expanded conditions per rule for q1 and q2 (Table 1): reader,
  // duplicate, replacing are derivable for both queries; cycle for
  // neither; missing only for q2. Each feasible rule's derived bound is
  // checked against EXPERIMENTS.md's "derived" column (t1/t2/t3 =
  // 5/10/20 min; the ±1µs folds a strict inequality at µs granularity).
  DefineRules(5);
  int64_t t1 = workload::T1ForSelectivity(db_, 0.1);
  int64_t t2 = workload::T2ForSelectivity(db_, 0.1);
  std::string q1 = workload::Q1(t1);
  std::string q2 = workload::Q2(t2, "dc2");

  struct RuleGroup {
    bool feasible = true;
    std::optional<TimeBound> bound;  // union over the group's sub-rules
    std::string condition;           // rendered, sub-rules joined by " / "
  };
  auto table_row = [&](const std::string& sql, int64_t anchor) {
    RewriteInfo info = MustRewrite(sql, RewriteStrategy::kAuto);
    std::map<std::string, RuleGroup> by_rule;
    for (const RuleContextInfo& c : info.contexts) {
      // missing_r1/missing_r2 both belong to the "missing" rule group.
      std::string name = c.rule_name.substr(0, c.rule_name.find("_r"));
      auto [it, first] = by_rule.try_emplace(name);
      RuleGroup& group = it->second;
      group.feasible = group.feasible && c.feasible;
      if (!group.feasible) continue;
      std::optional<TimeBound> bound = BoundOf(c.context_condition, anchor);
      group.bound = first ? bound : Pick(group.bound, bound, /*looser=*/true);
      if (!first) group.condition += " / ";
      group.condition += ExprToSql(c.context_condition);
    }
    return by_rule;
  };
  auto expect_bound = [](const RuleGroup& group, BinaryOp op,
                         int64_t offset) {
    ASSERT_TRUE(group.feasible) << group.condition;
    ASSERT_TRUE(group.bound.has_value()) << group.condition;
    EXPECT_EQ(group.bound->column, "rtime") << group.condition;
    EXPECT_EQ(group.bound->op, op) << group.condition;
    EXPECT_EQ(group.bound->offset, offset) << group.condition;
  };
  constexpr BinaryOp kLe = BinaryOp::kLe;
  constexpr BinaryOp kGe = BinaryOp::kGe;

  auto q1r = table_row(q1, t1);
  expect_bound(q1r.at("reader"), kLe, Minutes(10) - 1);
  expect_bound(q1r.at("duplicate"), kLe, -1);
  expect_bound(q1r.at("replacing"), kLe, Minutes(20) - 1);
  EXPECT_FALSE(q1r.at("cycle").feasible);
  EXPECT_FALSE(q1r.at("missing").feasible);

  auto q2r = table_row(q2, t2);
  expect_bound(q2r.at("reader"), kGe, 1);
  expect_bound(q2r.at("duplicate"), kGe, -Minutes(5) + 1);
  expect_bound(q2r.at("replacing"), kGe, 1);
  EXPECT_FALSE(q2r.at("cycle").feasible);
  expect_bound(q2r.at("missing"), kGe, -Minutes(5) + 1);

  // The reader rule's context keeps its reader restriction.
  for (const auto* row : {&q1r, &q2r}) {
    EXPECT_NE(row->at("reader").condition.find("reader = 'readerX'"),
              std::string::npos)
        << row->at("reader").condition;
  }
}

TEST_F(IntegrationTest, MissingRuleCompensatesInQueries) {
  // With all five rules, cleansed q-counts include compensating pallet
  // reads for removed case reads.
  DefineRules(5);
  std::string sql = StrFormat(
      "SELECT count(*) FROM caseR WHERE rtime <= TIMESTAMP %lld",
      static_cast<long long>(workload::T1ForSelectivity(db_, 1.0)));
  RewriteInfo naive = MustRewrite(sql, RewriteStrategy::kNaive);
  QueryResult clean = Run(naive.sql);
  ASSERT_EQ(clean.rows.size(), 1u);
  // All injected delete-type anomalies removed; missing reads compensated.
  // clean count = original clean reads (duplicates/reader/cycle reads
  // removed, missing reads replaced by pallet rows, LOC2 modified rows
  // kept, the extra LOCA reads from replacing injection remain).
  QueryResult dirty = Run(sql);
  int64_t removed = anomaly_stats_.duplicates + anomaly_stats_.reader +
                    anomaly_stats_.cycles;
  EXPECT_EQ(clean.rows[0][0].int64_value(),
            dirty.rows[0][0].int64_value() - removed + anomaly_stats_.missing);
}

std::string LookupSql(const std::string& epc) {
  return "SELECT rtime, biz_loc, reader FROM caseR WHERE epc = '" + epc +
         "' ORDER BY rtime";
}

// `count` EPCs spread evenly over the table's distinct EPCs.
std::vector<std::string> SomeEpcs(const Database& db, size_t count) {
  auto res = ExecuteSql(db, "SELECT DISTINCT epc FROM caseR");
  EXPECT_TRUE(res.ok()) << res.status().ToString();
  std::vector<std::string> all;
  if (res.ok()) {
    for (const Row& r : res->rows) all.push_back(r[0].string_value());
  }
  std::sort(all.begin(), all.end());
  std::vector<std::string> out;
  for (size_t i = 0; i < count && !all.empty(); ++i) {
    out.push_back(all[i * all.size() / count]);
  }
  return out;
}

// Rows reported by every EXPLAIN line mentioning `table`'s columns or
// scans, so a check can bound each operator of a derived input's arm.
std::vector<std::pair<std::string, int64_t>> OperatorRows(
    const std::string& explain, const std::string& table) {
  std::vector<std::pair<std::string, int64_t>> out;
  size_t start = 0;
  while (start < explain.size()) {
    size_t end = explain.find('\n', start);
    if (end == std::string::npos) end = explain.size();
    std::string line = explain.substr(start, end - start);
    size_t rows = line.find(" rows=");
    if (line.find(table) != std::string::npos && rows != std::string::npos) {
      out.emplace_back(line, std::stoll(line.substr(rows + 6)));
    }
    start = end + 1;
  }
  return out;
}

TEST_F(IntegrationTest, NineTemplatesAndLookupsMatchNaiveUnderFiveRules) {
  // The differential check of the per-object rewrite: q1, q2 and q2' at
  // 1, 10 and 40% and twenty EPC lookups, each under expanded and
  // join-back, answer exactly what naive cleansing answers.
  DefineRules(5);
  std::vector<std::pair<std::string, bool>> queries;  // sql, expanded feasible
  for (double frac : {0.01, 0.10, 0.40}) {
    queries.emplace_back(workload::Q1(workload::T1ForSelectivity(db_, frac)),
                         false);
    queries.emplace_back(
        workload::Q2(workload::T2ForSelectivity(db_, frac), "dc2"), false);
    queries.emplace_back(
        workload::Q2Prime(workload::T2ForSelectivity(db_, frac), 3), false);
  }
  for (const std::string& epc : SomeEpcs(db_, 20)) {
    queries.emplace_back(LookupSql(epc), true);
  }
  ASSERT_EQ(queries.size(), 29u);
  for (const auto& [sql, expanded_feasible] : queries) {
    SCOPED_TRACE(sql);
    ExpectAllStrategiesAgree(sql, expanded_feasible);
  }
}

TEST_F(IntegrationTest, LookupPlanReadsOnlyTheObjectsRows) {
  // A lookup reads its EPC through the epc index, and the missing rule's
  // pallet arm never holds more rows than the EPC's own pallet reads.
  DefineRules(5);
  for (const std::string& epc : SomeEpcs(db_, 3)) {
    SCOPED_TRACE(epc);
    QueryResult own = Run(
        "SELECT count(*) FROM palletR, parent WHERE palletR.epc = "
        "parent.parent_epc AND parent.child_epc = '" + epc + "'");
    ASSERT_EQ(own.rows.size(), 1u);
    const int64_t own_pallet_reads = own.rows[0][0].int64_value();
    for (RewriteStrategy strategy :
         {RewriteStrategy::kExpanded, RewriteStrategy::kJoinBack}) {
      RewriteInfo info = MustRewrite(LookupSql(epc), strategy);
      QueryResult res = Run(info.sql);
      EXPECT_NE(res.explain.find("IndexRangeScan [caseR ON epc"),
                std::string::npos)
          << res.explain;
      auto arm = OperatorRows(res.explain, "palletR");
      EXPECT_FALSE(arm.empty()) << res.explain;
      for (const auto& [line, rows] : arm) {
        EXPECT_LE(rows, own_pallet_reads) << line;
      }
    }
  }
}

// Per-object scaling: the same five-rule lookup on a table ten times
// larger still succeeds under the server's per-query budget and needs
// about the same memory, because it reads only the EPC's rows.
TEST(PerObjectScalingTest, LookupPeakMemoryFlatFrom40To400Pallets) {
  uint64_t peak[2] = {0, 0};
  const int64_t pallets[2] = {40, 400};
  for (int i = 0; i < 2; ++i) {
    SCOPED_TRACE(pallets[i]);
    Database db;
    rfidgen::GeneratorOptions gen;
    gen.num_pallets = pallets[i];
    gen.min_cases_per_pallet = 3;
    gen.max_cases_per_pallet = 6;
    gen.reads_per_site = 5;
    gen.num_stores = 30;
    gen.num_warehouses = 10;
    gen.num_dcs = 5;
    gen.locations_per_site = 10;
    ASSERT_TRUE(rfidgen::Generate(gen, &db).ok());
    rfidgen::AnomalyOptions anomalies;
    anomalies.dirty_fraction = 0.10;
    ASSERT_TRUE(rfidgen::InjectAnomalies(anomalies, &db).ok());
    CleansingRuleEngine engine(&db);
    for (const std::string& def : workload::StandardRuleDefinitions(5)) {
      ASSERT_TRUE(engine.DefineRule(def).ok()) << def;
    }
    QueryRewriter rewriter(&db, &engine);
    const std::string sql = LookupSql(SomeEpcs(db, 2)[1]);

    RewriteOptions naive_opts;
    naive_opts.strategy = RewriteStrategy::kNaive;
    auto naive = rewriter.Rewrite(sql, naive_opts);
    ASSERT_TRUE(naive.ok()) << naive.status().ToString();
    auto truth = ExecuteSql(db, naive->sql);
    ASSERT_TRUE(truth.ok()) << truth.status().ToString();
    ASSERT_FALSE(truth->rows.empty());

    for (RewriteStrategy strategy :
         {RewriteStrategy::kExpanded, RewriteStrategy::kJoinBack}) {
      ExecLimits limits;
      limits.memory_budget_bytes = server::AdmissionOptions{}.per_query_bytes;
      ExecContext ctx(limits);
      RewriteOptions opts;
      opts.strategy = strategy;
      opts.exec_context = &ctx;
      auto info = rewriter.Rewrite(sql, opts);
      ASSERT_TRUE(info.ok()) << info.status().ToString();
      auto res = ExecuteSql(db, info->sql, &ctx);
      ASSERT_TRUE(res.ok()) << RewriteStrategyName(strategy) << ": "
                            << res.status().ToString();
      EXPECT_EQ(Canonical(res->rows), Canonical(truth->rows))
          << RewriteStrategyName(strategy);
      peak[i] = std::max(peak[i], res->peak_memory_bytes);
    }
  }
  EXPECT_GT(peak[0], 0u);
  EXPECT_LE(peak[1], 2 * peak[0]) << "40 pallets: " << peak[0]
                                  << " B, 400 pallets: " << peak[1] << " B";
}

}  // namespace
}  // namespace rfid
