// Columnar cold-segment correctness: every encoding must round-trip
// rows *bit-identically* (doubles by bit pattern, so NaN payloads and
// -0.0 survive), encoded-predicate evaluation must agree with the row
// interpreter for all six comparison operators at every SIMD dispatch
// level, zone-map skipping must never change results (and must shut off
// while fault injection is active, mirroring the ChooseDop rule),
// serialization must reject corrupt input instead of crashing, and a
// WAL checkpoint must persist encoded segments so a recovered server
// scans columnar without re-encoding.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/string_util.h"
#include "exec/parallel.h"
#include "expr/row_batch.h"
#include "ingest/ingest.h"
#include "plan/planner.h"
#include "rewrite/rewriter.h"
#include "rfidgen/anomaly.h"
#include "rfidgen/rfidgen.h"
#include "rfidgen/stream.h"
#include "rfidgen/workload.h"
#include "storage/columnar.h"
#include "wal/wal_manager.h"

namespace rfid {
namespace {

using ingest::IngestPipeline;
using ingest::TableBatch;
using rfidgen::ReadStream;
using rfidgen::StreamBatch;
using rfidgen::StreamOptions;
using wal::WalManager;

// Bit-exact equality: the round-trip contract is stronger than
// Value::Compare (which collapses -0.0 == 0.0 and has no NaN order).
bool BitEq(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case DataType::kNull:
      return true;
    case DataType::kString:
      return a.string_value() == b.string_value();
    case DataType::kDouble: {
      uint64_t ab, bb;
      double ad = a.double_value(), bd = b.double_value();
      std::memcpy(&ab, &ad, sizeof(ab));
      std::memcpy(&bb, &bd, sizeof(bb));
      return ab == bb;
    }
    default:
      return a.int64_value() == b.int64_value();
  }
}

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

std::vector<std::string> RunExact(Database& db, const std::string& sql) {
  auto res = ExecuteSql(db, sql);
  EXPECT_TRUE(res.ok()) << sql << "\n" << res.status().ToString();
  return res.ok() ? Exact(res->rows) : std::vector<std::string>{};
}

void ExpectSegmentRoundTrip(const RowStore& store, uint64_t base,
                            uint32_t num_rows, size_t ncols,
                            const char* label) {
  EncodedSegmentPtr seg = EncodeSegment(store, base, num_rows, ncols);
  ASSERT_NE(seg, nullptr) << label;
  ASSERT_EQ(seg->columns.size(), ncols) << label;
  ASSERT_EQ(seg->zones.size(), ncols) << label;
  Row decoded;
  for (uint32_t i = 0; i < num_rows; ++i) {
    const Row& want = store.row(base + i);
    for (size_t c = 0; c < ncols; ++c) {
      Value got = DecodeValueAt(seg->columns[c], i);
      EXPECT_TRUE(BitEq(got, want[c]))
          << label << ": col " << c << " row " << i << ": decoded "
          << got.ToString() << " want " << want[c].ToString();
    }
    DecodeRowInto(*seg, i, &decoded);
    ASSERT_EQ(decoded.size(), ncols) << label;
    for (size_t c = 0; c < ncols; ++c) {
      EXPECT_TRUE(BitEq(decoded[c], want[c])) << label << ": row " << i;
    }
  }
}

class ColumnarTest : public ::testing::Test {
 protected:
  void TearDown() override {
    SetColumnarForTest(-1);
    SetVectorizedForTest(-1);
    SetBatchCapacityForTest(0);
    SetParallelPolicyForTest(0, 0);
    simd::SetLevelForTest(-1);
  }
};

// ---------------------------------------------------------------------
// Encoding round-trips: decode(encode(x)) == x, bit for bit.
// ---------------------------------------------------------------------

TEST_F(ColumnarTest, RoundTripAdversarialProfiles) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  RowStore store;
  const uint32_t n = 512;
  for (uint32_t i = 0; i < n; ++i) {
    Row r;
    // 0: small-range ints (bit-pack).
    r.push_back(Value::Int64(static_cast<int64_t>(i % 7)));
    // 1: small-range ints with nulls (bit-pack null bitmap).
    r.push_back(i % 5 == 0 ? Value::Null()
                           : Value::Int64(static_cast<int64_t>(i % 3) - 1));
    // 2: extreme ints (plain; delta range overflows any pack width).
    r.push_back(Value::Int64(i % 2 == 0 ? std::numeric_limits<int64_t>::min()
                                        : std::numeric_limits<int64_t>::max()));
    // 3: low-cardinality strings (dict), with empty string as a value.
    r.push_back(Value::String(i % 4 == 0 ? "" : StrFormat("loc%u", i % 3)));
    // 4: all-distinct strings.
    r.push_back(Value::String(StrFormat("epc-%06u", i)));
    // 5: long runs (RLE).
    r.push_back(Value::Timestamp(static_cast<int64_t>(i / 100)));
    // 6: all NULL.
    r.push_back(Value::Null());
    // 7: single value everywhere.
    r.push_back(Value::Int64(42));
    // 8: doubles with NaN, -0.0 and 0.0 (bit patterns must survive).
    r.push_back(i % 11 == 0 ? Value::Double(nan)
                            : Value::Double(i % 2 == 0 ? -0.0 : 0.0));
    // 9: mixed tags in one column (plain fallback).
    r.push_back(i % 3 == 0 ? Value::Int64(static_cast<int64_t>(i))
                           : Value::String("mixed"));
    // 10: bools and intervals (int64 family coverage).
    r.push_back(i % 2 == 0 ? Value::Bool(i % 4 == 0)
                           : Value::Interval(static_cast<int64_t>(i) * 1000));
    ASSERT_TRUE(store.PushBack(std::move(r)).ok());
  }
  store.PublishVisible();
  ExpectSegmentRoundTrip(store, 0, n, 11, "adversarial");

  // Zone maps over the tricky columns must refuse to prune: NaN doubles
  // (8) and mixed tags (9) have no total order, all-NULL (6) has no
  // min/max.
  EncodedSegmentPtr seg = EncodeSegment(store, 0, n, 11);
  EXPECT_FALSE(seg->zones[6].prunable);
  EXPECT_FALSE(seg->zones[8].prunable);
  EXPECT_FALSE(seg->zones[9].prunable);
  EXPECT_TRUE(seg->zones[0].prunable);
  EXPECT_EQ(seg->zones[6].null_count, n);
}

TEST_F(ColumnarTest, RoundTripRandomized) {
  Random rng(20060912);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int iter = 0; iter < 20; ++iter) {
    const uint32_t n = static_cast<uint32_t>(rng.UniformRange(1, 2048));
    const size_t ncols = static_cast<size_t>(rng.UniformRange(1, 4));
    std::vector<int> profile(ncols);
    for (size_t c = 0; c < ncols; ++c) {
      profile[c] = static_cast<int>(rng.Uniform(8));
    }
    RowStore store;
    for (uint32_t i = 0; i < n; ++i) {
      Row r;
      for (size_t c = 0; c < ncols; ++c) {
        if (rng.Uniform(10) == 0) {
          r.push_back(Value::Null());
          continue;
        }
        switch (profile[c]) {
          case 0:
            r.push_back(Value::Int64(rng.UniformRange(-5, 5)));
            break;
          case 1:
            r.push_back(Value::Int64(static_cast<int64_t>(rng.Next())));
            break;
          case 2:
            r.push_back(Value::String(
                StrFormat("s%lld", static_cast<long long>(rng.Uniform(4)))));
            break;
          case 3:
            r.push_back(Value::String(
                StrFormat("u%llu", static_cast<unsigned long long>(rng.Next()))));
            break;
          case 4:
            r.push_back(Value::Timestamp(rng.UniformRange(0, 3)));
            break;
          case 5:
            r.push_back(rng.Uniform(7) == 0
                            ? Value::Double(nan)
                            : Value::Double(static_cast<double>(
                                  rng.UniformRange(-100, 100)) / 8.0));
            break;
          case 6:
            r.push_back(Value::Bool(rng.Uniform(2) == 0));
            break;
          default:
            r.push_back(Value::Int64(rng.UniformRange(0, 1)));
            break;
        }
      }
      ASSERT_TRUE(store.PushBack(std::move(r)).ok());
    }
    store.PublishVisible();
    std::string label = StrFormat("iter %d (n=%u)", iter, n);
    ExpectSegmentRoundTrip(store, 0, n, ncols, label.c_str());
  }
}

TEST_F(ColumnarTest, SerializationRoundTripAndCorruptInput) {
  RowStore store;
  for (uint32_t i = 0; i < 300; ++i) {
    Row r;
    r.push_back(Value::Int64(i % 9));
    r.push_back(Value::String(StrFormat("g%u", i % 5)));
    r.push_back(i % 7 == 0 ? Value::Null() : Value::Timestamp(i / 50));
    ASSERT_TRUE(store.PushBack(std::move(r)).ok());
  }
  store.PublishVisible();
  EncodedSegmentPtr seg = EncodeSegment(store, 0, 300, 3);

  std::string bytes;
  AppendSegmentBytes(*seg, &bytes);
  size_t offset = 0;
  auto parsed = ParseSegmentBytes(bytes, &offset);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(offset, bytes.size());
  ASSERT_EQ((*parsed)->num_rows, seg->num_rows);
  for (uint32_t i = 0; i < seg->num_rows; ++i) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_TRUE(BitEq(DecodeValueAt((*parsed)->columns[c], i),
                        DecodeValueAt(seg->columns[c], i)))
          << "row " << i << " col " << c;
    }
  }

  // Every truncation must fail cleanly (error status, no UB — the ASan
  // configuration of this suite is the point).
  for (size_t cut = 0; cut < bytes.size(); cut += 97) {
    size_t off = 0;
    auto r = ParseSegmentBytes(std::string_view(bytes.data(), cut), &off);
    EXPECT_FALSE(r.ok()) << "parsed a " << cut << "-byte prefix";
  }
}

// ---------------------------------------------------------------------
// Encoded predicates == interpreter, for all six operators, all
// encodings, every SIMD dispatch level.
// ---------------------------------------------------------------------

// A table whose four columns land in the four encodings (plus nulls and
// NaN), big enough for two cold segments and a hot row-store tail.
std::unique_ptr<Database> MakeEncodedDb(size_t nrows = 5000) {
  auto db = std::make_unique<Database>();
  Schema schema;
  schema.AddColumn("i", DataType::kInt64);       // bit-pack
  schema.AddColumn("s", DataType::kString);      // dict
  schema.AddColumn("ts", DataType::kTimestamp);  // rle (long runs)
  schema.AddColumn("d", DataType::kDouble);      // plain (NaN present)
  auto t = db->CreateTable("enc", schema);
  EXPECT_TRUE(t.ok());
  Random rng(7);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (size_t i = 0; i < nrows; ++i) {
    Row r;
    r.push_back(i % 31 == 0 ? Value::Null()
                            : Value::Int64(rng.UniformRange(0, 99)));
    r.push_back(Value::String(
        StrFormat("loc%02lld", static_cast<long long>(rng.Uniform(20)))));
    r.push_back(Value::Timestamp(static_cast<int64_t>(i / 400)));
    r.push_back(i % 97 == 0 ? Value::Double(nan)
                            : Value::Double(static_cast<double>(
                                  rng.UniformRange(-50, 50)) / 4.0));
    (*t)->AppendUnchecked(std::move(r));
  }
  SetColumnarForTest(1);
  (*t)->EncodeColdSegments();
  SetColumnarForTest(-1);
  return db;
}

TEST_F(ColumnarTest, EncodedPredicatesMatchInterpreterAllOps) {
  auto db = MakeEncodedDb();
  const char* ops[] = {"=", "<>", "<", "<=", ">", ">="};
  std::vector<std::string> predicates;
  for (const char* op : ops) {
    // Bit-packed ints: literal inside, below, above the domain.
    predicates.push_back(StrFormat("i %s 42", op));
    predicates.push_back(StrFormat("i %s -1", op));
    predicates.push_back(StrFormat("i %s 1000", op));
    // Dict strings: present, absent-in-range, below-all, above-all.
    predicates.push_back(StrFormat("s %s 'loc07'", op));
    predicates.push_back(StrFormat("s %s 'loc07x'", op));
    predicates.push_back(StrFormat("s %s 'aaa'", op));
    predicates.push_back(StrFormat("s %s 'zzz'", op));
    // RLE timestamps: run boundaries.
    predicates.push_back(StrFormat("ts %s TIMESTAMP 6", op));
    // Doubles with NaN present (zone maps must not prune).
    predicates.push_back(StrFormat("d %s 0.25", op));
  }
  // Conjunctions: sargable + sargable, and sargable + residual.
  predicates.push_back("i <= 40 AND s = 'loc03'");
  predicates.push_back("i >= 10 AND ts < TIMESTAMP 9 AND i + 0 >= 10");

  for (const std::string& pred : predicates) {
    std::string sql = "SELECT i, s, ts, d FROM enc WHERE " + pred;
    SetColumnarForTest(0);
    std::vector<std::string> want = RunExact(*db, sql);
    SetColumnarForTest(1);
    for (int level : {0, 1, 2}) {
      simd::SetLevelForTest(level);
      EXPECT_EQ(RunExact(*db, sql), want)
          << sql << " (simd level " << level << ")";
    }
    simd::SetLevelForTest(-1);
    // Row-at-a-time NextImpl path over encoded segments.
    SetVectorizedForTest(0);
    EXPECT_EQ(RunExact(*db, sql), want) << sql << " (row engine)";
    SetVectorizedForTest(-1);
    // Morsel-parallel workers over encoded segments.
    SetParallelPolicyForTest(4, 64);
    EXPECT_EQ(RunExact(*db, sql), want) << sql << " (parallel)";
    SetParallelPolicyForTest(0, 0);
    SetColumnarForTest(-1);
  }
}

TEST_F(ColumnarTest, ComparisonAgainstNullLiteralEmitsNothing) {
  auto db = MakeEncodedDb(1000);
  SetColumnarForTest(1);
  EXPECT_TRUE(RunExact(*db, "SELECT i FROM enc WHERE i < NULL").empty());
  SetColumnarForTest(0);
  EXPECT_TRUE(RunExact(*db, "SELECT i FROM enc WHERE i < NULL").empty());
}

TEST_F(ColumnarTest, MutationInvalidatesEncodings) {
  auto db = MakeEncodedDb();
  Table* t = db->GetTable("enc");
  ASSERT_GT(t->columnar().encoded_segments(), 0u);

  SetColumnarForTest(1);
  std::string sql = "SELECT i, s FROM enc WHERE i <= 3";
  std::vector<std::string> before = RunExact(*db, sql);

  // In-place mutation (the cleansing engine's UPDATE path) must drop
  // every encoded segment; results reflect the new value immediately.
  t->mutable_row(0)[0] = Value::Int64(3);
  t->mutable_row(0)[1] = Value::String("patched");
  EXPECT_EQ(t->columnar().encoded_segments(), 0u);
  std::vector<std::string> after = RunExact(*db, sql);
  EXPECT_NE(before, after);
  SetColumnarForTest(0);
  EXPECT_EQ(RunExact(*db, sql), after);
}

// ---------------------------------------------------------------------
// Zone-map skipping: surfaced in EXPLAIN, never under fault injection.
// ---------------------------------------------------------------------

TEST_F(ColumnarTest, ZoneMapSkippingSurfacedInExplain) {
  auto db = MakeEncodedDb();  // ts is monotonic: 0..12 across 5000 rows
  SetColumnarForTest(1);
  // ts >= 10 excludes both cold segments (rows 0..4095 have ts <= 10;
  // segment zones carry ts maxima 5 and 10).
  std::string sql = "SELECT ts FROM enc WHERE ts > TIMESTAMP 10";
  ColumnarCounters before = GlobalColumnarCounters();
  auto res = ExecuteSql(*db, sql);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ColumnarCounters after = GlobalColumnarCounters();
  EXPECT_NE(res->explain.find("segments: skipped=2/2"), std::string::npos)
      << res->explain;
  EXPECT_NE(res->explain.find("enc="), std::string::npos) << res->explain;
  EXPECT_GE(after.segments_skipped - before.segments_skipped, 2u);

  SetColumnarForTest(0);
  EXPECT_EQ(Exact(res->rows), RunExact(*db, sql));

  // A predicate that keeps every segment reports scanned, not skipped.
  SetColumnarForTest(1);
  auto all = ExecuteSql(*db, "SELECT ts FROM enc WHERE ts >= TIMESTAMP 0");
  ASSERT_TRUE(all.ok());
  EXPECT_NE(all->explain.find("segments: skipped=0/2"), std::string::npos)
      << all->explain;
  // EXPLAIN header advertises the engine + dispatch level.
  EXPECT_NE(all->explain.find(StrFormat("columnar: on (simd=%s)",
                                        simd::ActiveLevelName())),
            std::string::npos)
      << all->explain;
}

TEST_F(ColumnarTest, FaultInjectionDisablesZoneSkipping) {
  auto db = MakeEncodedDb();
  SetColumnarForTest(1);
  std::string sql = "SELECT ts FROM enc WHERE ts > TIMESTAMP 10";
  std::vector<std::string> want = RunExact(*db, sql);

  // Mirror of the ChooseDop rule: a fault sweep must cross every step
  // the unfaulted engine would take, so segment skipping shuts off and
  // every segment is visited.
  FaultInjector counter = FaultInjector::CountOnly();
  {
    ScopedFaultInjector scope(&counter);
    auto res = ExecuteSql(*db, sql);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_EQ(Exact(res->rows), want);
    EXPECT_NE(res->explain.find("segments: skipped=0/2"), std::string::npos)
        << "zone skipping ran under fault injection:\n" << res->explain;
  }
}

// ---------------------------------------------------------------------
// End-to-end bit-identity: rewrite strategies x engines x batch sizes,
// columnar on vs off, under live ingest.
// ---------------------------------------------------------------------

class ColumnarQueryTest : public ColumnarTest {
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
      ASSERT_TRUE(engine_->DefineRule(def).ok());
    }
    rewriter_ = std::make_unique<QueryRewriter>(&db_, engine_.get());
  }

  std::string Rewrite(const std::string& sql, RewriteStrategy strategy) {
    RewriteOptions opts;
    opts.strategy = strategy;
    auto r = rewriter_->Rewrite(sql, opts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->sql : std::string();
  }

  Database db_;
  std::unique_ptr<CleansingRuleEngine> engine_;
  std::unique_ptr<QueryRewriter> rewriter_;
};

TEST_F(ColumnarQueryTest, BitIdenticalAcrossStrategiesEnginesAndBatches) {
  std::string q1 = workload::Q1(workload::T1ForSelectivity(db_, 0.5));
  std::string q2 = workload::Q2(workload::T2ForSelectivity(db_, 0.5), "dc2");
  for (RewriteStrategy strategy :
       {RewriteStrategy::kNaive, RewriteStrategy::kExpanded,
        RewriteStrategy::kJoinBack}) {
    for (const std::string& base : {q1, q2}) {
      std::string sql = Rewrite(base, strategy);
      SetColumnarForTest(0);
      std::vector<std::string> want = RunExact(db_, sql);
      SetColumnarForTest(1);
      for (size_t capacity : {size_t{1}, size_t{7}, size_t{1024}}) {
        SetBatchCapacityForTest(capacity);
        EXPECT_EQ(RunExact(db_, sql), want)
            << "columnar diverged (strategy " << static_cast<int>(strategy)
            << ", batch " << capacity << ")\nsql: " << sql;
      }
      SetBatchCapacityForTest(0);
      SetVectorizedForTest(0);
      EXPECT_EQ(RunExact(db_, sql), want) << "row engine diverged\n" << sql;
      SetVectorizedForTest(-1);
      SetParallelPolicyForTest(4, 64);
      EXPECT_EQ(RunExact(db_, sql), want) << "parallel diverged\n" << sql;
      SetParallelPolicyForTest(0, 0);
      SetColumnarForTest(-1);
    }
  }
}

TEST_F(ColumnarQueryTest, BitIdenticalUnderLiveIngest) {
  // A cold encoded prefix plus a hot row-format tail that grows epoch by
  // epoch: after every published batch the on/off outputs must agree.
  Database db;
  StreamOptions opt;
  opt.seed = 23;
  opt.num_pallets = 150;  // ~32 case reads per pallet: spans 2+ segments
  auto stream = ReadStream::Create(&db, opt);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  IngestPipeline pipeline(&db, nullptr, 8, nullptr);
  SetColumnarForTest(1);

  const std::string sql =
      "SELECT epc, rtime, biz_loc FROM caseR WHERE reader <> 'readerX'";
  for (int epoch = 0; epoch < 6 && !(*stream)->exhausted(); ++epoch) {
    StreamBatch b = (*stream)->NextBatch(700);
    std::vector<TableBatch> group;
    group.push_back({"caseR", std::move(b.case_rows)});
    group.push_back({"palletR", std::move(b.pallet_rows)});
    group.push_back({"parent", std::move(b.parent_rows)});
    group.push_back({"epc_info", std::move(b.info_rows)});
    ASSERT_TRUE(pipeline.Apply(std::move(group)).ok());

    SetColumnarForTest(1);
    std::vector<std::string> on = RunExact(db, sql);
    SetColumnarForTest(0);
    std::vector<std::string> off = RunExact(db, sql);
    EXPECT_EQ(on, off) << "epoch " << epoch;
    SetColumnarForTest(1);
  }
  // Enough epochs landed to cross a segment boundary; the publish hook
  // must have encoded the cold prefix.
  EXPECT_GT(db.GetTable("caseR")->columnar().encoded_segments(), 0u);
}

// ---------------------------------------------------------------------
// Durability: checkpoints persist encodings; recovery restores them
// without re-encoding; corrupt sidecars degrade to re-encoding.
// ---------------------------------------------------------------------

class ColumnarWalTest : public ColumnarTest {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/rfid_columnar_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    ColumnarTest::TearDown();
    std::filesystem::remove_all(dir_);
  }

  // Feeds `epochs` stream batches of 700 case reads through a WAL-backed
  // pipeline, checkpointing after `checkpoint_after` of them.
  void FeedAndCheckpoint(Database* db, int epochs, int checkpoint_after) {
    StreamOptions opt;
    opt.seed = 47;
    opt.num_pallets = 200;  // ~32 case reads per pallet: spans 3 segments
    auto stream = ReadStream::Create(db, opt);
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    auto manager = WalManager::Open(dir_, db);
    ASSERT_TRUE(manager.ok()) << manager.status().ToString();
    IngestPipeline pipeline(db, nullptr, 8, manager->get());
    for (int i = 0; i < epochs; ++i) {
      ASSERT_FALSE((*stream)->exhausted());
      StreamBatch b = (*stream)->NextBatch(900);
      std::vector<TableBatch> group;
      group.push_back({"caseR", std::move(b.case_rows)});
      group.push_back({"palletR", std::move(b.pallet_rows)});
      group.push_back({"parent", std::move(b.parent_rows)});
      group.push_back({"epc_info", std::move(b.info_rows)});
      ASSERT_TRUE(pipeline.Apply(std::move(group)).ok());
      if (i + 1 == checkpoint_after) {
        ASSERT_TRUE(pipeline.Checkpoint().ok());
      }
    }
  }

  std::string dir_;
};

TEST_F(ColumnarWalTest, RecoveryRestoresEncodedSegmentsWithoutReencoding) {
  SetColumnarForTest(1);
  Database live;
  // Checkpoint after the final epoch: recovery replays nothing, so every
  // encoded segment must come from the sidecar, not a rebuild.
  ASSERT_NO_FATAL_FAILURE(FeedAndCheckpoint(&live, 6, 6));
  Table* live_caser = live.GetTable("caseR");
  ASSERT_GT(live_caser->columnar().encoded_segments(), 0u)
      << "feed too small to produce a cold segment";

  ColumnarCounters before = GlobalColumnarCounters();
  Database recovered;
  auto manager = WalManager::Open(dir_, &recovered);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  ASSERT_TRUE((*manager)->recovery().recovered);
  EXPECT_EQ((*manager)->recovery().replayed_epochs, 0u);
  ColumnarCounters after = GlobalColumnarCounters();

  EXPECT_EQ(after.segments_encoded, before.segments_encoded)
      << "recovery re-encoded segments the sidecar should have restored";
  EXPECT_EQ(recovered.GetTable("caseR")->columnar().encoded_segments(),
            live_caser->columnar().encoded_segments());

  // The recovered server scans columnar (scanned counter moves) and
  // answers bit-identically.
  const std::string sql =
      "SELECT epc, rtime, reader, biz_loc FROM caseR WHERE rtime >= TIMESTAMP 0";
  std::vector<std::string> want = RunExact(live, sql);
  ColumnarCounters s0 = GlobalColumnarCounters();
  EXPECT_EQ(RunExact(recovered, sql), want);
  ColumnarCounters s1 = GlobalColumnarCounters();
  EXPECT_GT(s1.segments_scanned, s0.segments_scanned);
}

TEST_F(ColumnarWalTest, ReplayedEpochsGetEncodedAfterRecovery) {
  SetColumnarForTest(1);
  Database live;
  // Checkpoint halfway: the replayed tail crosses segment boundaries, so
  // recovery must encode the newly-cold segments itself.
  ASSERT_NO_FATAL_FAILURE(FeedAndCheckpoint(&live, 6, 3));

  Database recovered;
  auto manager = WalManager::Open(dir_, &recovered);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  EXPECT_GT((*manager)->recovery().replayed_epochs, 0u);
  EXPECT_EQ(recovered.GetTable("caseR")->columnar().encoded_segments(),
            live.GetTable("caseR")->columnar().encoded_segments());
  const std::string sql =
      "SELECT epc, rtime, reader, biz_loc FROM caseR WHERE reader <> 'readerX'";
  EXPECT_EQ(RunExact(recovered, sql), RunExact(live, sql));
}

TEST_F(ColumnarWalTest, CorruptSidecarDegradesToReencoding) {
  SetColumnarForTest(1);
  Database live;
  ASSERT_NO_FATAL_FAILURE(FeedAndCheckpoint(&live, 6, 6));

  // Damage the COLUMNAR sidecar inside the live checkpoint directory.
  bool corrupted = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (!entry.is_directory()) continue;
    std::string sidecar = entry.path().string() + "/COLUMNAR";
    if (!std::filesystem::exists(sidecar)) continue;
    std::fstream f(sidecar, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('\xff');
    corrupted = true;
  }
  ASSERT_TRUE(corrupted) << "no COLUMNAR sidecar found under " << dir_;

  Database recovered;
  auto manager = WalManager::Open(dir_, &recovered);
  ASSERT_TRUE(manager.ok())
      << "corrupt sidecar must not block recovery: "
      << manager.status().ToString();
  // The cache degrades, then the post-replay encode pass rebuilds it.
  EXPECT_EQ(recovered.GetTable("caseR")->columnar().encoded_segments(),
            live.GetTable("caseR")->columnar().encoded_segments());
  const std::string sql =
      "SELECT epc, rtime, reader, biz_loc FROM caseR WHERE reader <> 'readerX'";
  EXPECT_EQ(RunExact(recovered, sql), RunExact(live, sql));
}

TEST_F(ColumnarWalTest, MissingSidecarIsNotAnError) {
  Database db;
  Status st = LoadColumnarSidecar(dir_ + "/definitely-missing", &db);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

}  // namespace
}  // namespace rfid
