// Deterministic fault-injection sweeps over representative plans.
//
// For each plan the test first runs with a CountOnly injector to learn
// the number of injection points crossed (the sweep space) and the
// baseline result, then replays the pipeline with FailAtStep(k) for every
// step k. Each injected failure must surface as a non-OK Status with the
// injection site in the message — never a crash — and must unwind
// cleanly: all accounted memory released, no partial result escaping.
// scripts/check.sh also runs this binary under ASan+UBSan, which turns
// any leaked allocation on an unwind path into a hard failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>

#include "common/fault.h"
#include "common/io.h"
#include "common/string_util.h"
#include "common/time_util.h"
#include "expr/row_batch.h"
#include "plan/planner.h"
#include "rewrite/rewriter.h"
#include "verify/verify.h"

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

struct PipelineOutcome {
  Status status = Status::OK();
  std::vector<Row> rows;
};

class FaultInjectionTest : public ::testing::Test {
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

    ASSERT_TRUE(
        locs_->Append({Value::String("locA"), Value::String("dc1")}).ok());
    ASSERT_TRUE(
        locs_->Append({Value::String("locB"), Value::String("store1")}).ok());
    ASSERT_TRUE(
        locs_->Append({Value::String("locC"), Value::String("store1")}).ok());

    const char* readers[] = {"r1", "r2", "readerX"};
    const char* glns[] = {"locA", "locB", "locC"};
    for (int e = 0; e < 6; ++e) {
      for (int i = 0; i < 6; ++i) {
        ASSERT_TRUE(case_r_
                        ->Append({Value::String("e" + std::to_string(e)),
                                  Value::Timestamp(Minutes(3 * i + e)),
                                  Value::String(readers[(e + i) % 3]),
                                  Value::String(glns[(e + 2 * i) % 3])})
                        .ok());
      }
    }
    ASSERT_TRUE(case_r_->BuildIndex("rtime").ok());
    ASSERT_TRUE(case_r_->BuildIndex("epc").ok());
    case_r_->ComputeStats();
    locs_->ComputeStats();

    engine_ = std::make_unique<CleansingRuleEngine>(&db_);
    ASSERT_TRUE(engine_
                    ->DefineRule("DEFINE reader ON caseR CLUSTER BY epc "
                                 "SEQUENCE BY rtime AS (A, *B) WHERE "
                                 "B.reader = 'readerX' AND B.rtime - A.rtime "
                                 "< 5 MINUTES ACTION DELETE A")
                    .ok());
    rewriter_ = std::make_unique<QueryRewriter>(&db_, engine_.get());
  }

  void TearDown() override {
    SetVectorizedForTest(-1);
    SetBatchCapacityForTest(0);
    SetVerifyForTest(-1);
  }

  // Runs one full pipeline (optional rewrite, then execute) under
  // whatever fault injector the caller installed. Verifies that failure
  // or success, the context ends with zero accounted bytes.
  PipelineOutcome RunPipeline(const std::string& sql,
                              std::optional<RewriteStrategy> strategy) {
    PipelineOutcome out;
    ExecContext ctx;
    std::string exec_sql = sql;
    if (strategy.has_value()) {
      RewriteOptions opts;
      opts.strategy = *strategy;
      opts.exec_context = &ctx;
      auto info = rewriter_->Rewrite(sql, opts);
      if (!info.ok()) {
        out.status = info.status();
        EXPECT_EQ(ctx.memory_used(), 0u);
        return out;
      }
      exec_sql = info.value().sql;
    }
    auto res = ExecuteSql(db_, exec_sql, &ctx);
    if (!res.ok()) {
      out.status = res.status();
    } else {
      out.rows = std::move(res.value().rows);
    }
    EXPECT_EQ(ctx.memory_used(), 0u) << "accounted memory leaked: " << sql;
    return out;
  }

  // CountOnly baseline, then the exhaustive (strided when huge) fail-at-k
  // sweep, then a clean re-run that must reproduce the baseline.
  void Sweep(const std::string& label, const std::string& sql,
             std::optional<RewriteStrategy> strategy) {
    SCOPED_TRACE(label);
    FaultInjector counter = FaultInjector::CountOnly();
    uint64_t total_steps = 0;
    std::vector<std::string> baseline;
    {
      ScopedFaultInjector scope(&counter);
      PipelineOutcome out = RunPipeline(sql, strategy);
      ASSERT_TRUE(out.status.ok()) << out.status.ToString();
      ASSERT_FALSE(out.rows.empty());
      baseline = Canonical(out.rows);
      total_steps = counter.steps();
    }
    ASSERT_GT(total_steps, 0u);

    // Cap the sweep at ~500 injected runs; the stride still covers every
    // operator's Open, the early Next calls, and the tail.
    const uint64_t stride = std::max<uint64_t>(1, total_steps / 500);
    for (uint64_t k = 0; k < total_steps; k += stride) {
      FaultInjector injector = FaultInjector::FailAtStep(k);
      ScopedFaultInjector scope(&injector);
      PipelineOutcome out = RunPipeline(sql, strategy);
      ASSERT_TRUE(injector.fired()) << "step " << k;
      EXPECT_EQ(injector.fired_step(), k);
      ASSERT_FALSE(out.status.ok())
          << "injected fault at step " << k << " (site "
          << injector.fired_site() << ") was swallowed";
      EXPECT_NE(out.status.message().find("injected fault"),
                std::string::npos)
          << out.status.ToString();
      EXPECT_TRUE(out.rows.empty()) << "partial rows escaped at step " << k;
    }

    // The engine recovers completely once faults stop.
    PipelineOutcome clean = RunPipeline(sql, strategy);
    ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();
    EXPECT_EQ(Canonical(clean.rows), baseline);
  }

  Database db_;
  Table* case_r_ = nullptr;
  Table* locs_ = nullptr;
  std::unique_ptr<CleansingRuleEngine> engine_;
  std::unique_ptr<QueryRewriter> rewriter_;
};

TEST_F(FaultInjectionTest, ScanOnlySweep) {
  Sweep("scan-only", "SELECT epc, rtime, reader, biz_loc FROM caseR",
        std::nullopt);
}

TEST_F(FaultInjectionTest, NaiveWindowCleansingSweep) {
  Sweep("naive", "SELECT epc, rtime FROM caseR WHERE biz_loc = 'locA'",
        RewriteStrategy::kNaive);
}

TEST_F(FaultInjectionTest, ExpandedRewriteSweep) {
  Sweep("expanded", "SELECT epc, rtime FROM caseR WHERE biz_loc = 'locA'",
        RewriteStrategy::kExpanded);
}

TEST_F(FaultInjectionTest, JoinBackRewriteSweep) {
  Sweep("join-back", "SELECT epc, rtime FROM caseR WHERE biz_loc = 'locA'",
        RewriteStrategy::kJoinBack);
}

TEST_F(FaultInjectionTest, JoinAggregateSweep) {
  Sweep("join+aggregate",
        "SELECT l.site, count(*) FROM caseR c, locs l "
        "WHERE c.biz_loc = l.gln AND l.site = 'store1' GROUP BY l.site",
        RewriteStrategy::kAuto);
}

// The default sweeps above run the default (vectorized) engine. Pin the
// row interpreter so its per-row unwind paths stay swept too.
TEST_F(FaultInjectionTest, RowEngineSweepStillCovered) {
  SetVectorizedForTest(0);
  Sweep("row-naive", "SELECT epc, rtime FROM caseR WHERE biz_loc = 'locA'",
        RewriteStrategy::kNaive);
}

// Batch pipelines at a tiny capacity: several NextBatch calls per
// operator, so the sweep crosses mid-stream batch refills in every
// operator of the window/join plans.
TEST_F(FaultInjectionTest, VectorizedSmallBatchSweep) {
  SetVectorizedForTest(1);
  SetBatchCapacityForTest(5);
  Sweep("vectorized-expanded",
        "SELECT epc, rtime FROM caseR WHERE biz_loc = 'locA'",
        RewriteStrategy::kExpanded);
}

// Faults injected at `<Op>.NextBatch` sites specifically must surface
// and unwind through the same idempotent Close/RAII guards as row-path
// faults — and those sites must actually exist in a vectorized plan.
TEST_F(FaultInjectionTest, NextBatchFaultSitesUnwindCleanly) {
  SetVectorizedForTest(1);
  SetBatchCapacityForTest(4);
  const std::string sql = "SELECT epc, rtime FROM caseR WHERE biz_loc = 'locA'";

  FaultInjector counter = FaultInjector::CountOnly();
  uint64_t total_steps = 0;
  {
    ScopedFaultInjector scope(&counter);
    PipelineOutcome out = RunPipeline(sql, RewriteStrategy::kNaive);
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
    total_steps = counter.steps();
  }

  size_t next_batch_faults = 0;
  for (uint64_t k = 0; k < total_steps; ++k) {
    FaultInjector injector = FaultInjector::FailAtStep(k);
    ScopedFaultInjector scope(&injector);
    PipelineOutcome out = RunPipeline(sql, RewriteStrategy::kNaive);
    ASSERT_TRUE(injector.fired()) << "step " << k;
    ASSERT_FALSE(out.status.ok()) << "fault at step " << k << " swallowed";
    EXPECT_TRUE(out.rows.empty()) << "partial rows escaped at step " << k;
    if (injector.fired_site().find(".NextBatch") != std::string::npos) {
      ++next_batch_faults;
    }
  }
  EXPECT_GT(next_batch_faults, 0u)
      << "no NextBatch fault sites crossed: the plan did not run batched";
}

// The static verification layer adds its own injection site
// (verify.Plan fires once per planner phase) and walks whatever plan
// the fault-shortened pipeline handed it. With verification pinned on,
// every injected failure must still unwind as a structured Status —
// the verifiers never crash on a partially-constructed plan, and their
// own fault points surface like any other.
TEST_F(FaultInjectionTest, VerifiedPipelineSweep) {
  SetVerifyForTest(1);
  Sweep("verified-expanded",
        "SELECT epc, rtime FROM caseR WHERE biz_loc = 'locA'",
        RewriteStrategy::kExpanded);
}

// Reproducible chaos: random-fire injectors across many seeds. The
// pipeline must fail exactly when the injector fired, and never crash.
TEST_F(FaultInjectionTest, SeededRandomChaos) {
  const std::string sql = "SELECT epc, rtime FROM caseR WHERE biz_loc = 'locA'";
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    FaultInjector injector = FaultInjector::SeededRandom(seed, 0.02);
    ScopedFaultInjector scope(&injector);
    PipelineOutcome out = RunPipeline(sql, RewriteStrategy::kAuto);
    EXPECT_EQ(out.status.ok(), !injector.fired())
        << "seed " << seed << ": " << out.status.ToString();
  }
}

// A fired injector keeps failing: retries inside the same scope cannot
// silently succeed against a dead subsystem.
TEST_F(FaultInjectionTest, FiredInjectorStaysFailing) {
  FaultInjector injector = FaultInjector::FailAtStep(0);
  ScopedFaultInjector scope(&injector);
  EXPECT_FALSE(PokeFault("first").ok());
  EXPECT_FALSE(PokeFault("second").ok());
  EXPECT_EQ(injector.fired_site(), "first");
  EXPECT_EQ(injector.fired_step(), 0u);
  EXPECT_EQ(injector.steps(), 2u);
}

TEST_F(FaultInjectionTest, NoInjectorMeansNoOverheadPath) {
  EXPECT_FALSE(FaultInjectionActive());
  EXPECT_TRUE(PokeFault("anything").ok());
}

// File-I/O fault sites (common/io.h): a fail-at-step sweep over one
// append+sync sequence must fire each site deterministically and leave
// the documented on-disk artifact — nothing written, a torn half, a
// bit-flipped copy, or unsynced-but-present bytes.
TEST(FileIoFaultTest, SitesFireDeterministicallyWithRealisticArtifacts) {
  const std::string path = ::testing::TempDir() + "/rfid_io_fault.bin";
  const std::string payload = "0123456789abcdef";  // 16 bytes, even split

  auto run_step = [&](FaultInjector* injector) {
    std::remove(path.c_str());
    auto file = DurableFile::Create(path);
    if (!file.ok()) return file.status();
    ScopedFaultInjector scope(injector);
    Status st = file->Append(payload);
    if (st.ok()) st = file->Sync();
    return st;
  };

  // Learn the sweep space (Create runs outside the scope: the sites
  // under test are the append/sync ones).
  uint64_t total = 0;
  {
    FaultInjector counter = FaultInjector::CountOnly();
    ASSERT_TRUE(run_step(&counter).ok());
    total = counter.steps();
  }
  ASSERT_EQ(total, 4u) << "io.write, io.write.short, io.write.flip, io.fsync";

  for (uint64_t step = 0; step < total; ++step) {
    FaultInjector injector = FaultInjector::FailAtStep(step);
    Status st = run_step(&injector);
    ASSERT_FALSE(st.ok()) << "step " << step;
    ASSERT_TRUE(injector.fired()) << "step " << step;
    auto on_disk = ReadFileToString(path);
    ASSERT_TRUE(on_disk.ok());
    if (injector.fired_site() == kFaultIoWrite) {
      EXPECT_TRUE(on_disk->empty()) << "crash-before-write left bytes";
    } else if (injector.fired_site() == kFaultIoWriteShort) {
      EXPECT_EQ(*on_disk, payload.substr(0, payload.size() / 2))
          << "short write should leave exactly the first half";
    } else if (injector.fired_site() == kFaultIoWriteFlip) {
      EXPECT_EQ(on_disk->size(), payload.size());
      EXPECT_NE(*on_disk, payload) << "flip site wrote clean bytes";
      EXPECT_NE(Crc32(*on_disk), Crc32(payload))
          << "a checksum must be able to catch the flip";
    } else if (injector.fired_site() == kFaultIoFsync) {
      EXPECT_EQ(*on_disk, payload) << "fsync failure loses no written bytes";
    } else {
      ADD_FAILURE() << "unexpected site " << injector.fired_site()
                    << " at step " << step;
    }
    // Identical reruns fire the identical site: the sweep space is
    // stable, which is what makes crash-point sweeps reproducible.
    FaultInjector again = FaultInjector::FailAtStep(step);
    ASSERT_FALSE(run_step(&again).ok());
    EXPECT_EQ(again.fired_site(), injector.fired_site()) << "step " << step;
    EXPECT_EQ(again.fired_step(), injector.fired_step()) << "step " << step;
  }
  std::remove(path.c_str());
}

// The atomic-replace path: a rename failure must leave the previous
// final file untouched (the crash artifact is "old contents survive").
TEST(FileIoFaultTest, RenameFailureLeavesPreviousFileIntact) {
  const std::string path = ::testing::TempDir() + "/rfid_io_atomic.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "previous contents").ok());

  // Count the steps one atomic write crosses, then fail each in turn.
  uint64_t total = 0;
  {
    FaultInjector counter = FaultInjector::CountOnly();
    ScopedFaultInjector scope(&counter);
    ASSERT_TRUE(WriteFileAtomic(path, "previous contents").ok());
    total = counter.steps();
  }
  ASSERT_GE(total, 5u);  // 3 write sites + fsync + rename

  for (uint64_t step = 0; step < total; ++step) {
    ASSERT_TRUE(WriteFileAtomic(path, "previous contents").ok());
    FaultInjector injector = FaultInjector::FailAtStep(step);
    Status st;
    {
      ScopedFaultInjector scope(&injector);
      st = WriteFileAtomic(path, "NEW contents that must not land");
    }
    ASSERT_FALSE(st.ok()) << "step " << step;
    auto on_disk = ReadFileToString(path);
    ASSERT_TRUE(on_disk.ok()) << "step " << step << " clobbered the file";
    EXPECT_EQ(*on_disk, "previous contents")
        << "step " << step << " (site " << injector.fired_site()
        << ") leaked a partial replacement";
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rfid
