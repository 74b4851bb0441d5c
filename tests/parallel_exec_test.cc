// Parallel execution correctness: plans over a morsel-parallel scan must
// be *bit-identical* to serial ones (exact row order and values, not just
// set-equal) under the sorts, joins and windows above the scan and all
// three cleansing rewrite strategies; EXPLAIN must surface the planner's
// serial-vs-parallel decision and per-operator DOP (only the scan goes
// parallel); and guardrails (memory budget, deadline, cancellation) must
// stop a plan over a parallel scan exactly as they stop a serial one,
// releasing all accounted memory on unwind. The memory budget trips
// inside the scan's workers; the deadline and cancel tests arm their
// trip before execution starts, so it fires at the root's Open guard,
// before the scan fans out.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "exec/parallel.h"
#include "plan/planner.h"
#include "rewrite/rewriter.h"
#include "rfidgen/anomaly.h"
#include "rfidgen/rfidgen.h"
#include "rfidgen/workload.h"

namespace rfid {
namespace {

// The rest of the EXPLAIN line from the first occurrence of `op`, or ""
// if it does not occur.
std::string ExplainLine(const std::string& explain, const std::string& op) {
  size_t at = explain.find(op);
  if (at == std::string::npos) return "";
  return explain.substr(at, explain.find('\n', at) - at);
}

// Exact, order-sensitive serialization: parallel output must match the
// serial plan row for row, so no sorting before comparison.
std::vector<std::string> Exact(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& r : rows) {
    std::string s;
    for (const Value& v : r) s += v.ToString() + "|";
    out.push_back(std::move(s));
  }
  return out;
}

class ParallelExecTest : public ::testing::Test {
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

    engine_ = std::make_unique<CleansingRuleEngine>(&db_);
    for (const std::string& def : workload::StandardRuleDefinitions(3)) {
      Status st = engine_->DefineRule(def);
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    rewriter_ = std::make_unique<QueryRewriter>(&db_, engine_.get());
  }

  void TearDown() override {
    SetParallelPolicyForTest(0, 0);  // restore env/hardware defaults
  }

  QueryResult Run(const std::string& sql, ExecContext* ctx = nullptr) {
    auto res = ctx == nullptr ? ExecuteSql(db_, sql) : ExecuteSql(db_, sql, ctx);
    EXPECT_TRUE(res.ok()) << sql << "\n" << res.status().ToString();
    return res.ok() ? std::move(res).value() : QueryResult{};
  }

  std::string Rewrite(const std::string& sql, RewriteStrategy strategy) {
    RewriteOptions opts;
    opts.strategy = strategy;
    auto r = rewriter_->Rewrite(sql, opts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->sql : std::string();
  }

  // Runs `sql` serially, then with a forced DOP, and demands identical
  // output including row order.
  void ExpectBitIdentical(const std::string& sql, int dop) {
    SetParallelPolicyForTest(1, 0);
    QueryResult serial = Run(sql);
    EXPECT_EQ(serial.max_dop, 1) << serial.explain;

    SetParallelPolicyForTest(dop, /*min_parallel_rows=*/64);
    QueryResult parallel = Run(sql);
    EXPECT_EQ(Exact(serial.rows), Exact(parallel.rows))
        << "parallel output diverged from serial (dop=" << dop << ")\nsql: "
        << sql << "\nexplain:\n" << parallel.explain;
  }

  Database db_;
  std::unique_ptr<CleansingRuleEngine> engine_;
  std::unique_ptr<QueryRewriter> rewriter_;
};

TEST_F(ParallelExecTest, PlainScanSortJoinAggregateBitIdentical) {
  int64_t t1 = workload::T1ForSelectivity(db_, 0.6);
  for (int dop : {2, 4, 8}) {
    // Full scan + fused filter (ties in rtime exercise sort stability).
    ExpectBitIdentical(
        StrFormat("SELECT epc, rtime, biz_loc FROM caseR WHERE rtime <= "
                  "TIMESTAMP %lld ORDER BY rtime, epc",
                  static_cast<long long>(t1)),
        dop);
    // Hash join against the reference table, probe order preserved.
    ExpectBitIdentical(
        "SELECT r.epc, r.rtime, e.product FROM caseR r, epc_info e "
        "WHERE r.epc = e.epc",
        dop);
    // Aggregation over a parallel scan.
    ExpectBitIdentical(
        "SELECT biz_loc, count(*) FROM caseR GROUP BY biz_loc "
        "ORDER BY biz_loc",
        dop);
  }
}

TEST_F(ParallelExecTest, AllRewriteStrategiesBitIdentical) {
  std::string q1 = workload::Q1(workload::T1ForSelectivity(db_, 0.5));
  std::string q2 = workload::Q2(workload::T2ForSelectivity(db_, 0.5), "dc2");
  for (RewriteStrategy strategy :
       {RewriteStrategy::kNaive, RewriteStrategy::kExpanded,
        RewriteStrategy::kJoinBack}) {
    ExpectBitIdentical(Rewrite(q1, strategy), 4);
    ExpectBitIdentical(Rewrite(q2, strategy), 4);
  }
}

TEST_F(ParallelExecTest, ExplainReportsDecisionAndPerOperatorDop) {
  SetParallelPolicyForTest(4, 16);
  QueryResult res = Run(
      "SELECT epc, rtime FROM caseR WHERE biz_loc <> 'none' ORDER BY rtime, "
      "epc");
  EXPECT_GT(res.max_dop, 1) << res.explain;
  EXPECT_NE(res.explain.find("parallelism: dop="), std::string::npos)
      << res.explain;
  EXPECT_NE(res.explain.find(" dop=4"), std::string::npos) << res.explain;
  // Only the scan fans out; the sort above it runs serially.
  std::string scan_line = ExplainLine(res.explain, "ParallelTableScan [");
  std::string sort_line = ExplainLine(res.explain, "Sort [");
  EXPECT_NE(scan_line.find(" dop=4 "), std::string::npos) << res.explain;
  EXPECT_NE(sort_line.find(" dop=1 "), std::string::npos) << res.explain;

  // Below the threshold the same query plans serial, and says so.
  SetParallelPolicyForTest(4, 1000000000);
  QueryResult serial = Run("SELECT epc FROM caseR");
  EXPECT_EQ(serial.max_dop, 1);
  EXPECT_NE(serial.explain.find("parallelism: serial"), std::string::npos)
      << serial.explain;
  // Every operator line reports its dop.
  EXPECT_NE(serial.explain.find(" dop=1"), std::string::npos)
      << serial.explain;
}

TEST_F(ParallelExecTest, MemoryBudgetTripsMidParallelPipeline) {
  SetParallelPolicyForTest(4, 64);
  ExecLimits limits;
  limits.memory_budget_bytes = 4 << 10;  // 4 KB: far below the scan output
  ExecContext ctx(limits);
  auto res = ExecuteSql(
      db_, "SELECT epc, rtime, biz_loc FROM caseR ORDER BY rtime", &ctx);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
  // Unwinding a parallel pipeline releases everything that was charged.
  EXPECT_EQ(ctx.memory_used(), 0u);
}

TEST_F(ParallelExecTest, DeadlineTripsMidParallelPipeline) {
  SetParallelPolicyForTest(4, 64);
  ExecLimits limits;
  limits.timeout_micros = 1;  // expires before the first morsel completes
  ExecContext ctx(limits);
  auto res = ExecuteSql(
      db_, "SELECT epc, rtime FROM caseR ORDER BY rtime, epc", &ctx);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ctx.memory_used(), 0u);
}

TEST_F(ParallelExecTest, CancellationTripsMidParallelPipeline) {
  SetParallelPolicyForTest(4, 64);
  ExecContext ctx;
  ctx.RequestCancel();
  auto res = ExecuteSql(db_, "SELECT epc FROM caseR", &ctx);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(ctx.memory_used(), 0u);
}

// Regression: the last worker used to notify ParallelRun's stack-local
// completion CondVar after releasing its mutex, so the coordinator could
// see the count reach zero, return, and destroy the CondVar while the
// notify was still running. Thousands of tiny calls keep that window
// hot; the TSan pass reports any recurrence as a race.
TEST(ParallelRunTest, ThousandsOfTinyCallsCompleteCleanly) {
  constexpr int kCalls = 5000;
  std::atomic<int> ran{0};
  for (int i = 0; i < kCalls; ++i) {
    Status st = ParallelRun(4, [&](int) {
      ran.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    });
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  EXPECT_EQ(ran.load(), 4 * kCalls);
}

}  // namespace
}  // namespace rfid
