// Vectorized execution correctness: batch-at-a-time plans must be
// *bit-identical* to the row-at-a-time interpreter (exact row order and
// values) across scans/filters/joins/aggregates/windows and all three
// cleansing rewrite strategies, at every batch size including
// pathological ones (capacity 1 and primes that straddle operator
// boundaries), serial and parallel; EXPLAIN must surface the batch size
// next to the per-operator DOP; and guardrails (memory budget, deadline,
// cancellation) must trip mid-batch-pipeline exactly as they do on the
// row engine, releasing all accounted memory on unwind.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/string_util.h"
#include "exec/parallel.h"
#include "expr/row_batch.h"
#include "plan/planner.h"
#include "rewrite/rewriter.h"
#include "rfidgen/anomaly.h"
#include "rfidgen/rfidgen.h"
#include "rfidgen/workload.h"

namespace rfid {
namespace {

// Exact, order-sensitive serialization: vectorized output must match the
// interpreted plan row for row, so no sorting before comparison.
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

class VectorizedExecTest : public ::testing::Test {
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
    SetVectorizedForTest(-1);        // restore env default
    SetBatchCapacityForTest(0);      // restore env/default capacity
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

  // Runs `sql` on the row interpreter, then vectorized at several batch
  // capacities (1 = one row per batch, primes so operator row counts
  // never divide evenly, and the default), demanding identical output
  // including row order each time.
  void ExpectBitIdentical(const std::string& sql) {
    SetVectorizedForTest(0);
    QueryResult interpreted = Run(sql);

    SetVectorizedForTest(1);
    for (size_t capacity : {size_t{1}, size_t{7}, size_t{1024}}) {
      SetBatchCapacityForTest(capacity);
      QueryResult vectorized = Run(sql);
      EXPECT_EQ(Exact(interpreted.rows), Exact(vectorized.rows))
          << "vectorized output diverged from interpreter (batch=" << capacity
          << ")\nsql: " << sql << "\nexplain:\n" << vectorized.explain;
    }
    SetBatchCapacityForTest(0);
    SetVectorizedForTest(-1);
  }

  Database db_;
  std::unique_ptr<CleansingRuleEngine> engine_;
  std::unique_ptr<QueryRewriter> rewriter_;
};

TEST_F(VectorizedExecTest, ScanFilterProjectJoinAggregateBitIdentical) {
  int64_t t1 = workload::T1ForSelectivity(db_, 0.6);
  // Full scan + fused filter + projection expressions.
  ExpectBitIdentical(
      StrFormat("SELECT epc, rtime, biz_loc FROM caseR WHERE rtime <= "
                "TIMESTAMP %lld ORDER BY rtime, epc",
                static_cast<long long>(t1)));
  // Hash join against the reference table, probe order preserved.
  ExpectBitIdentical(
      "SELECT r.epc, r.rtime, e.product FROM caseR r, epc_info e "
      "WHERE r.epc = e.epc");
  // Multi-match joins: every probe row fans out over duplicate build keys.
  ExpectBitIdentical(
      "SELECT r.epc, r2.rtime FROM caseR r, caseR r2 "
      "WHERE r.epc = r2.epc AND r.reader = 'r1'");
  // Aggregation (grouped and global) over batched input.
  ExpectBitIdentical(
      "SELECT biz_loc, count(*), min(rtime), max(rtime) FROM caseR "
      "GROUP BY biz_loc ORDER BY biz_loc");
  ExpectBitIdentical("SELECT count(*), count(DISTINCT epc) FROM caseR");
  // DISTINCT and LIMIT interact with batch boundaries.
  ExpectBitIdentical("SELECT DISTINCT biz_loc FROM caseR ORDER BY biz_loc");
  ExpectBitIdentical("SELECT epc, rtime FROM caseR ORDER BY rtime, epc LIMIT 10");
}

TEST_F(VectorizedExecTest, AllRewriteStrategiesBitIdentical) {
  std::string q1 = workload::Q1(workload::T1ForSelectivity(db_, 0.5));
  std::string q2 = workload::Q2(workload::T2ForSelectivity(db_, 0.5), "dc2");
  for (RewriteStrategy strategy :
       {RewriteStrategy::kNaive, RewriteStrategy::kExpanded,
        RewriteStrategy::kJoinBack}) {
    ExpectBitIdentical(Rewrite(q1, strategy));
    ExpectBitIdentical(Rewrite(q2, strategy));
  }
}

TEST_F(VectorizedExecTest, ComposesWithMorselParallelism) {
  // The batch engine over the morsel-parallel scan must agree with the
  // serial row interpreter.
  std::string q1 = Rewrite(workload::Q1(workload::T1ForSelectivity(db_, 0.5)),
                           RewriteStrategy::kExpanded);
  SetVectorizedForTest(0);
  SetParallelPolicyForTest(1, 0);
  QueryResult baseline = Run(q1);

  SetVectorizedForTest(1);
  SetBatchCapacityForTest(7);
  SetParallelPolicyForTest(4, 64);
  QueryResult both = Run(q1);
  EXPECT_EQ(Exact(baseline.rows), Exact(both.rows))
      << "vectorized+parallel diverged from serial interpreter\n"
      << both.explain;
}

TEST_F(VectorizedExecTest, ExplainReportsBatchSize) {
  SetVectorizedForTest(1);
  SetBatchCapacityForTest(256);
  QueryResult res = Run("SELECT epc, rtime FROM caseR ORDER BY rtime, epc");
  EXPECT_NE(res.explain.find("vectorized: on (batch=256)"), std::string::npos)
      << res.explain;
  // Every operator line reports the batch size next to its dop.
  EXPECT_NE(res.explain.find(" batch=256"), std::string::npos) << res.explain;

  SetVectorizedForTest(0);
  QueryResult off = Run("SELECT epc FROM caseR");
  EXPECT_NE(off.explain.find("vectorized: off"), std::string::npos)
      << off.explain;
  EXPECT_NE(off.explain.find(" batch=0"), std::string::npos) << off.explain;
}

TEST_F(VectorizedExecTest, MemoryBudgetTripsMidBatchPipeline) {
  SetVectorizedForTest(1);
  ExecLimits limits;
  limits.memory_budget_bytes = 4 << 10;  // 4 KB: far below the scan output
  ExecContext ctx(limits);
  auto res = ExecuteSql(
      db_, "SELECT epc, rtime, biz_loc FROM caseR ORDER BY rtime", &ctx);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
  // Unwinding a batch pipeline releases everything that was charged.
  EXPECT_EQ(ctx.memory_used(), 0u);
}

TEST_F(VectorizedExecTest, DeadlineTripsMidBatchPipeline) {
  SetVectorizedForTest(1);
  ExecLimits limits;
  limits.timeout_micros = 1;  // expires before the first batch completes
  ExecContext ctx(limits);
  auto res = ExecuteSql(
      db_, "SELECT epc, rtime FROM caseR ORDER BY rtime, epc", &ctx);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ctx.memory_used(), 0u);
}

TEST_F(VectorizedExecTest, CancellationTripsMidBatchPipeline) {
  SetVectorizedForTest(1);
  ExecContext ctx;
  ctx.RequestCancel();
  auto res = ExecuteSql(db_, "SELECT epc FROM caseR", &ctx);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(ctx.memory_used(), 0u);
}

TEST_F(VectorizedExecTest, OutputRowLimitExactOnBatchPath) {
  // The row cap must trip at exactly the same row on the batch path,
  // even when the limit falls mid-batch.
  SetVectorizedForTest(1);
  SetBatchCapacityForTest(64);
  ExecLimits limits;
  limits.max_output_rows = 5;
  ExecContext ctx(limits);
  auto res = ExecuteSql(db_, "SELECT epc FROM caseR", &ctx);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.memory_used(), 0u);

  // Under the cap, results flow normally.
  ExecContext ctx2(limits);
  auto ok = ExecuteSql(db_, "SELECT epc FROM caseR LIMIT 5", &ctx2);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().rows.size(), 5u);
}

}  // namespace
}  // namespace rfid
