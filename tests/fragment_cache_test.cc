// Cleansed-fragment cache: region schemes, watermark validity, LRU
// memory bounds, the stitched execution path's bit-identity with the
// uncached rewrites (serial and parallel, cold and warm), and the
// invalidation interplay with the SQL server's plan cache under live
// ingest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cache/fragment_cache.h"
#include "exec/parallel.h"
#include "ingest/ingest.h"
#include "plan/planner.h"
#include "rewrite/fragment_stitch.h"
#include "rewrite/rewriter.h"
#include "rfidgen/anomaly.h"
#include "rfidgen/rfidgen.h"
#include "rfidgen/stream.h"
#include "rfidgen/workload.h"
#include "server/client.h"
#include "server/server.h"

namespace rfid {
namespace {

using cache::FragmentCache;
using cache::FragmentCacheOptions;
using cache::FragmentKey;
using cache::RegionSchemePtr;

// Exact, order-sensitive, bit-exact serialization: the stitched plan
// must reproduce the uncached output *row for row*.
std::string BitExact(const Value& v) {
  if (v.type() == DataType::kDouble) {
    uint64_t bits = 0;
    double d = v.double_value();
    std::memcpy(&bits, &d, sizeof(bits));
    return "d:" + std::to_string(bits);
  }
  return std::string(DataTypeName(v.type())) + ":" + v.ToString();
}

std::string Exact(const std::vector<Row>& rows) {
  std::string out;
  for (const Row& r : rows) {
    for (const Value& v : r) out += BitExact(v) + "|";
    out += "\n";
  }
  return out;
}

std::vector<std::string> Sorted(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const Row& r : rows) {
    std::string s;
    for (const Value& v : r) s += BitExact(v) + "|";
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

void GenDirty(Database* db, int64_t pallets, double dirty_pct) {
  rfidgen::GeneratorOptions gen;
  gen.num_pallets = pallets;
  ASSERT_TRUE(rfidgen::Generate(gen, db).ok());
  rfidgen::AnomalyOptions anomalies;
  anomalies.dirty_fraction = dirty_pct / 100.0;
  ASSERT_TRUE(rfidgen::InjectAnomalies(anomalies, db).ok());
}

std::unique_ptr<CleansingRuleEngine> MakeEngine(Database* db, int num_rules) {
  auto engine = std::make_unique<CleansingRuleEngine>(db);
  for (const std::string& def :
       workload::StandardRuleDefinitions(num_rules)) {
    Status st = engine->DefineRule(def);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return engine;
}

// Runs `sql` through the uncached rewrite with `strategy` and executes
// it. Returns false when the strategy has no feasible rewrite.
bool RunUncached(Database* db, CleansingRuleEngine* engine,
                 const std::string& sql, RewriteStrategy strategy,
                 QueryResult* out) {
  QueryRewriter rewriter(db, engine);
  RewriteOptions opts;
  opts.strategy = strategy;
  auto info = rewriter.Rewrite(sql, opts);
  if (!info.ok()) return false;
  auto res = ExecuteSql(*db, info->sql);
  EXPECT_TRUE(res.ok()) << res.status().ToString();
  *out = std::move(*res);
  return true;
}

// Runs `sql` through the fragment-cache stitch and executes it with the
// bindings installed on the context. Asserts the stitch applied.
QueryResult RunStitched(Database* db, CleansingRuleEngine* engine,
                        FragmentCache* cache, const std::string& sql,
                        size_t* hits = nullptr, size_t* misses = nullptr,
                        SnapshotPtr snapshot = nullptr) {
  ExecContext ctx;
  if (snapshot != nullptr) ctx.set_snapshot(snapshot);
  auto stitch = StitchWithFragmentCache(sql, db, *engine, cache, &ctx);
  EXPECT_TRUE(stitch.ok()) << stitch.status().ToString();
  EXPECT_TRUE(stitch->used) << "stitch not used: " << stitch->reason;
  if (hits != nullptr) *hits = stitch->hits;
  if (misses != nullptr) *misses = stitch->misses;
  auto res = ExecuteSql(*db, stitch->sql, &ctx);
  EXPECT_TRUE(res.ok()) << res.status().ToString() << "\nsql: " << stitch->sql;
  return res.ok() ? std::move(*res) : QueryResult{};
}

// --- region schemes ---

TEST(RegionSchemeTest, RegionOfAgreesWithRegionPredicateSql) {
  Database db;
  GenDirty(&db, 5, 10);
  const Table* caseR = db.GetTable("caseR");
  ASSERT_NE(caseR, nullptr);

  FragmentCacheOptions opt;
  opt.target_region_rows = 1024;
  opt.max_regions = 8;
  FragmentCache cache(opt);
  RegionSchemePtr scheme =
      cache.SchemeFor(*caseR, "epc", caseR->visible_rows());
  ASSERT_NE(scheme, nullptr);
  ASSERT_GT(scheme->num_regions(), 1u) << "want a real partition";

  // Every row lands in exactly the region whose SQL predicate selects it.
  std::vector<uint64_t> by_region(scheme->num_regions(), 0);
  for (size_t i = 0; i < caseR->num_rows(); ++i) {
    ++by_region[scheme->RegionOf(caseR->row(i)[scheme->ckey_slot])];
  }
  uint64_t total = 0;
  for (size_t r = 0; r < scheme->num_regions(); ++r) {
    std::string pred = scheme->RegionPredicateSql(r);
    ASSERT_FALSE(pred.empty());
    auto res = ExecuteSql(
        db, "SELECT count(*) FROM caseR WHERE " + pred);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ASSERT_EQ(res->rows.size(), 1u);
    uint64_t n = static_cast<uint64_t>(res->rows[0][0].int64_value());
    EXPECT_EQ(n, by_region[r]) << "region " << r << ": " << pred;
    total += n;
  }
  EXPECT_EQ(total, caseR->num_rows()) << "regions must partition the table";
}

TEST(RegionSchemeTest, OneSchemePerTableAndStableAcrossCalls) {
  Database db;
  GenDirty(&db, 3, 10);
  const Table* caseR = db.GetTable("caseR");
  FragmentCache cache;
  RegionSchemePtr first = cache.SchemeFor(*caseR, "epc", caseR->visible_rows());
  ASSERT_NE(first, nullptr);
  // Same ckey: the same scheme object. Different ckey: refused.
  EXPECT_EQ(cache.SchemeFor(*caseR, "EPC", caseR->visible_rows()), first);
  EXPECT_EQ(cache.SchemeFor(*caseR, "reader", caseR->visible_rows()), nullptr);
  // Unknown column: refused.
  Database db2;
  GenDirty(&db2, 3, 10);
  FragmentCache cache2;
  EXPECT_EQ(cache2.SchemeFor(*db2.GetTable("caseR"), "nope", 10), nullptr);
}

// --- cache watermark validity ---

class FragmentCacheValidityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GenDirty(&db_, 3, 10);
    caseR_ = db_.GetTable("caseR");
    ASSERT_NE(caseR_, nullptr);
    w0_ = caseR_->visible_rows();
  }

  FragmentKey KeyFor(const RegionSchemePtr& scheme, size_t region) {
    return FragmentKey{"caser", /*rule_fingerprint=*/42, scheme->fingerprint,
                       region};
  }

  std::vector<Row> SomeRows() {
    return {caseR_->row(0), caseR_->row(1)};
  }

  Database db_;
  const Table* caseR_ = nullptr;
  uint64_t w0_ = 0;
};

TEST_F(FragmentCacheValidityTest, InsertThenLookupHitsAtSameWatermark) {
  FragmentCache cache;
  RegionSchemePtr scheme = cache.SchemeFor(*caseR_, "epc", w0_);
  ASSERT_NE(scheme, nullptr);
  FragmentKey key = KeyFor(scheme, 0);

  EXPECT_EQ(cache.Lookup(key, w0_), nullptr);
  cache.Insert(key, w0_, SomeRows());
  auto hit = cache.Lookup(key, w0_);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 2u);
  auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_GT(s.resident_bytes, 0u);
}

TEST_F(FragmentCacheValidityTest, OlderSnapshotNeverSeesNewerFragment) {
  // A query pinned below the watermark the fragment was built at must
  // miss: the fragment includes rows invisible to that snapshot.
  FragmentCache cache;
  RegionSchemePtr scheme = cache.SchemeFor(*caseR_, "epc", w0_);
  FragmentKey key = KeyFor(scheme, 0);
  cache.Insert(key, w0_, SomeRows());
  ASSERT_NE(cache.Lookup(key, w0_), nullptr);
  EXPECT_EQ(cache.Lookup(key, w0_ - 1), nullptr);
  EXPECT_GE(cache.stats().invalidations, 1u);
}

TEST_F(FragmentCacheValidityTest, StaleBuildIsRejected) {
  // A fragment built from a snapshot older than the region's last touch
  // must not be published.
  FragmentCache cache;
  RegionSchemePtr scheme = cache.SchemeFor(*caseR_, "epc", w0_);
  FragmentKey key = KeyFor(scheme, 0);
  cache.Insert(key, w0_ - 1, SomeRows());  // built below the seed touch
  EXPECT_EQ(cache.Lookup(key, w0_), nullptr);
  EXPECT_EQ(cache.stats().inserts, 0u);
}

TEST_F(FragmentCacheValidityTest, OnIngestInvalidatesOnlyTouchedRegions) {
  FragmentCacheOptions opt;
  opt.target_region_rows = 512;
  opt.max_regions = 8;
  FragmentCache cache(opt);
  RegionSchemePtr scheme = cache.SchemeFor(*caseR_, "epc", w0_);
  ASSERT_GT(scheme->num_regions(), 2u);

  for (size_t r = 0; r < scheme->num_regions(); ++r) {
    cache.Insert(KeyFor(scheme, r), w0_, SomeRows());
  }
  ASSERT_EQ(cache.stats().entries, scheme->num_regions());

  // Ingest one row whose ckey lands in a single known region.
  Row row = caseR_->row(0);
  size_t touched = scheme->RegionOf(row[scheme->ckey_slot]);
  cache.OnIngest(*caseR_, {row}, w0_ + 1);

  EXPECT_EQ(cache.stats().entries, scheme->num_regions() - 1)
      << "exactly the touched region's entry must drop";
  EXPECT_EQ(cache.Lookup(KeyFor(scheme, touched), w0_ + 1), nullptr);
  for (size_t r = 0; r < scheme->num_regions(); ++r) {
    if (r == touched) continue;
    EXPECT_NE(cache.Lookup(KeyFor(scheme, r), w0_ + 1), nullptr)
        << "untouched region " << r << " must survive the ingest";
  }
}

TEST_F(FragmentCacheValidityTest, UnnotifiedAdvanceIsAbsorbedConservatively) {
  FragmentCache cache;
  RegionSchemePtr scheme = cache.SchemeFor(*caseR_, "epc", w0_);
  FragmentKey key = KeyFor(scheme, 0);
  cache.Insert(key, w0_, SomeRows());
  // A query watermark the cache was never notified about: rows were
  // appended without OnIngest, so every entry of the table must drop.
  EXPECT_EQ(cache.Lookup(key, w0_ + 100), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  // And the entry cannot be resurrected by an old-watermark build.
  cache.Insert(key, w0_, SomeRows());
  EXPECT_EQ(cache.Lookup(key, w0_ + 100), nullptr);
}

TEST_F(FragmentCacheValidityTest, IngestNotifiedBeforeTheSchemeIsNotLost) {
  // The writer notifies a batch before any query has built the table's
  // scheme, then a query pinned at the older snapshot builds it and
  // publishes a fragment without the batch's row. A later batch that
  // touches no region must not make that fragment valid for snapshots
  // that can see the row.
  FragmentCache cache;
  Row row = caseR_->row(0);
  cache.OnIngest(*caseR_, {row}, w0_ + 1);
  RegionSchemePtr scheme = cache.SchemeFor(*caseR_, "epc", w0_);
  ASSERT_NE(scheme, nullptr);
  FragmentKey key = KeyFor(scheme, scheme->RegionOf(row[scheme->ckey_slot]));
  cache.Insert(key, w0_, SomeRows());
  cache.OnIngest(*caseR_, {}, w0_ + 2);
  EXPECT_EQ(cache.Lookup(key, w0_ + 2), nullptr);
  EXPECT_EQ(cache.Lookup(key, w0_ + 1), nullptr);
}

TEST_F(FragmentCacheValidityTest, LruEvictsByResidentBytes) {
  FragmentCacheOptions opt;
  opt.target_region_rows = 512;
  opt.max_regions = 8;
  FragmentCache cache(opt);
  RegionSchemePtr scheme = cache.SchemeFor(*caseR_, "epc", w0_);
  ASSERT_GE(scheme->num_regions(), 3u);

  cache.Insert(KeyFor(scheme, 0), w0_, SomeRows());
  size_t per_entry = cache.stats().resident_bytes;
  ASSERT_GT(per_entry, 0u);
  cache.set_capacity_bytes(2 * per_entry + per_entry / 2);

  cache.Insert(KeyFor(scheme, 1), w0_, SomeRows());
  EXPECT_EQ(cache.stats().entries, 2u);
  // Touch region 0 so region 1 is the LRU victim.
  ASSERT_NE(cache.Lookup(KeyFor(scheme, 0), w0_), nullptr);
  cache.Insert(KeyFor(scheme, 2), w0_, SomeRows());

  auto s = cache.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_LE(s.resident_bytes, cache.capacity_bytes());
  EXPECT_NE(cache.Lookup(KeyFor(scheme, 0), w0_), nullptr);
  EXPECT_EQ(cache.Lookup(KeyFor(scheme, 1), w0_), nullptr) << "LRU victim";
  EXPECT_NE(cache.Lookup(KeyFor(scheme, 2), w0_), nullptr);
}

TEST_F(FragmentCacheValidityTest, DisabledCacheServesNothingAndDropsState) {
  FragmentCache cache;
  RegionSchemePtr scheme = cache.SchemeFor(*caseR_, "epc", w0_);
  FragmentKey key = KeyFor(scheme, 0);
  cache.Insert(key, w0_, SomeRows());
  cache.set_enabled(false);
  EXPECT_EQ(cache.SchemeFor(*caseR_, "epc", w0_), nullptr);
  EXPECT_EQ(cache.Lookup(key, w0_), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
  cache.set_enabled(true);
  EXPECT_EQ(cache.Lookup(key, w0_), nullptr) << "state was wiped";
}

// --- rule-set fingerprints ---

TEST(FingerprintRulesTest, ContentBasedAcrossCatalogs) {
  Database db1, db2;
  GenDirty(&db1, 2, 10);
  GenDirty(&db2, 2, 10);
  auto e1 = MakeEngine(&db1, 3);
  auto e2 = MakeEngine(&db2, 3);
  // Identical definitions in distinct catalogs: identical fingerprints.
  EXPECT_EQ(FingerprintRules(e1->RulesFor("caseR")),
            FingerprintRules(e2->RulesFor("caseR")));
  // A different rule set moves the fingerprint.
  auto e3 = MakeEngine(&db2, 2);
  Database db3;
  GenDirty(&db3, 2, 10);
  auto e4 = MakeEngine(&db3, 4);
  EXPECT_NE(FingerprintRules(e1->RulesFor("caseR")),
            FingerprintRules(e3->RulesFor("caseR")));
  EXPECT_NE(FingerprintRules(e1->RulesFor("caseR")),
            FingerprintRules(e4->RulesFor("caseR")));
}

// --- stitched execution: bit-identity with the uncached rewrites ---

class FragmentStitchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GenDirty(&db_, 5, 15);
    engine_ = MakeEngine(&db_, 3);
    t1_ = workload::T1ForSelectivity(db_, 0.6);
    queries_ = {
        workload::Q1(t1_),
        "SELECT epc, biz_loc FROM caseR WHERE rtime <= TIMESTAMP " +
            std::to_string(t1_),
        "SELECT count(*) FROM caseR",
    };
    opt_.target_region_rows = 1024;
    opt_.max_regions = 8;
  }

  Database db_;
  std::unique_ptr<CleansingRuleEngine> engine_;
  int64_t t1_ = 0;
  std::vector<std::string> queries_;
  FragmentCacheOptions opt_;
};

TEST_F(FragmentStitchTest, ColdAndWarmMatchAllStrategiesBitExact) {
  FragmentCache cache(opt_);
  bool first_query = true;
  for (const std::string& sql : queries_) {
    QueryResult naive;
    ASSERT_TRUE(
        RunUncached(&db_, engine_.get(), sql, RewriteStrategy::kNaive, &naive));

    size_t hits = 0, misses = 0;
    QueryResult cold =
        RunStitched(&db_, engine_.get(), &cache, sql, &hits, &misses);
    if (first_query) {
      // Truly cold: every region is a miss.
      EXPECT_EQ(hits, 0u) << sql;
      EXPECT_GT(misses, 0u) << sql;
      first_query = false;
    } else {
      // Fragments key on (table, rules, region) — not the query text —
      // so a *different* query over the same ruled table reuses them.
      EXPECT_GT(hits, 0u) << sql;
      EXPECT_EQ(misses, 0u) << sql;
    }
    EXPECT_EQ(Exact(cold.rows), Exact(naive.rows)) << "cold: " << sql;

    QueryResult warm =
        RunStitched(&db_, engine_.get(), &cache, sql, &hits, &misses);
    EXPECT_GT(hits, 0u) << sql;
    EXPECT_EQ(misses, 0u) << sql;
    EXPECT_EQ(Exact(warm.rows), Exact(naive.rows)) << "warm: " << sql;

    // Expanded / join-back produce the same multiset of rows.
    for (RewriteStrategy strategy :
         {RewriteStrategy::kExpanded, RewriteStrategy::kJoinBack}) {
      QueryResult other;
      if (!RunUncached(&db_, engine_.get(), sql, strategy, &other)) continue;
      EXPECT_EQ(Sorted(warm.rows), Sorted(other.rows)) << sql;
    }
  }
}

TEST_F(FragmentStitchTest, ParallelStitchedMatchesSerialBitExact) {
  FragmentCache cache(opt_);
  const std::string sql = queries_[1];  // wide scan: parallel-eligible
  SetParallelPolicyForTest(1, 0);
  QueryResult serial = RunStitched(&db_, engine_.get(), &cache, sql);
  SetParallelPolicyForTest(4, /*min_parallel_rows=*/64);
  QueryResult parallel = RunStitched(&db_, engine_.get(), &cache, sql);
  QueryResult parallel_cold;
  {
    FragmentCache fresh(opt_);
    parallel_cold = RunStitched(&db_, engine_.get(), &fresh, sql);
  }
  SetParallelPolicyForTest(0, 0);  // restore defaults
  EXPECT_EQ(Exact(serial.rows), Exact(parallel.rows));
  EXPECT_EQ(Exact(serial.rows), Exact(parallel_cold.rows));
}

TEST_F(FragmentStitchTest, IneligibleShapesFallBackWithAReason) {
  FragmentCache cache(opt_);
  ExecContext ctx;
  // Self-join: two occurrences of the ruled table.
  auto self_join = StitchWithFragmentCache(
      "SELECT a.epc FROM caseR a, caseR b WHERE a.epc = b.epc", &db_,
      *engine_, &cache, &ctx);
  ASSERT_TRUE(self_join.ok());
  EXPECT_FALSE(self_join->used);
  EXPECT_FALSE(self_join->reason.empty());
  // No ruled table at all.
  auto unruled = StitchWithFragmentCache("SELECT * FROM epc_info", &db_,
                                         *engine_, &cache, &ctx);
  ASSERT_TRUE(unruled.ok());
  EXPECT_FALSE(unruled->used);
  // A rule set with a derived (FROM ...) input is ineligible.
  auto derived_engine = MakeEngine(&db_, 5);
  auto derived = StitchWithFragmentCache(queries_[2], &db_, *derived_engine,
                                         &cache, &ctx);
  ASSERT_TRUE(derived.ok());
  EXPECT_FALSE(derived->used);
  EXPECT_FALSE(derived->reason.empty());
}

TEST_F(FragmentStitchTest, RuleContentChangeMovesTheKey) {
  FragmentCache cache(opt_);
  size_t hits = 0, misses = 0;
  RunStitched(&db_, engine_.get(), &cache, queries_[2], &hits, &misses);
  ASSERT_GT(misses, 0u);
  // Re-running with a *different* rule set must not reuse the fragments.
  auto two_rules = MakeEngine(&db_, 2);
  RunStitched(&db_, two_rules.get(), &cache, queries_[2], &hits, &misses);
  EXPECT_EQ(hits, 0u);
  EXPECT_GT(misses, 0u);
  // While an identical catalog (fresh engine, same definitions) does.
  auto same_rules = MakeEngine(&db_, 3);
  RunStitched(&db_, same_rules.get(), &cache, queries_[2], &hits, &misses);
  EXPECT_GT(hits, 0u);
  EXPECT_EQ(misses, 0u);
}

// --- live ingest: incremental re-cleansing stays correct ---

TEST(FragmentIngestTest, InvalidationUnderLiveIngestStaysBitIdentical) {
  Database db;
  rfidgen::StreamOptions opt;
  opt.seed = 77;
  opt.num_pallets = 64;
  auto stream = rfidgen::ReadStream::Create(&db, opt);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();

  ingest::IngestPipeline pipeline(&db);
  FragmentCacheOptions copt;
  // Small regions relative to the stream volume: the scheme must end up
  // with several regions so per-epoch invalidation is visibly partial.
  copt.target_region_rows = 64;
  copt.max_regions = 8;
  FragmentCache cache(copt);
  pipeline.set_fragment_cache(&cache);

  auto feed = [&](size_t batches, size_t rows) {
    for (size_t i = 0; i < batches; ++i) {
      ASSERT_FALSE((*stream)->exhausted());
      rfidgen::StreamBatch b = (*stream)->NextBatch(rows);
      std::vector<ingest::TableBatch> group;
      group.push_back({"caseR", std::move(b.case_rows)});
      group.push_back({"palletR", std::move(b.pallet_rows)});
      group.push_back({"parent", std::move(b.parent_rows)});
      group.push_back({"epc_info", std::move(b.info_rows)});
      ASSERT_TRUE(pipeline.Apply(std::move(group)).ok());
    }
  };
  feed(6, 128);

  auto engine = MakeEngine(&db, 3);
  const std::string sql = "SELECT epc, biz_loc, rtime FROM caseR";

  size_t hits_after_ingest = 0;
  for (int round = 0; round < 4; ++round) {
    SnapshotPtr snap = pipeline.snapshot();
    size_t hits = 0, misses = 0;
    QueryResult stitched = RunStitched(&db, engine.get(), &cache, sql, &hits,
                                       &misses, snap);
    // Uncached twin at the *same* snapshot.
    ExecContext ctx;
    ctx.set_snapshot(snap);
    QueryRewriter rewriter(&db, engine.get());
    RewriteOptions ropts;
    ropts.strategy = RewriteStrategy::kNaive;
    ropts.exec_context = &ctx;
    auto info = rewriter.Rewrite(sql, ropts);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    auto uncached = ExecuteSql(db, info->sql, &ctx);
    ASSERT_TRUE(uncached.ok()) << uncached.status().ToString();
    EXPECT_EQ(Exact(stitched.rows), Exact(uncached->rows))
        << "round " << round << " (hit=" << hits << " miss=" << misses << ")";

    if (round > 0) hits_after_ingest += hits;
    feed(1, 64);
  }
  // Live ingest mostly touches tail regions (EPCs correlate with time),
  // so fragments survive epochs and the re-cleanse is incremental. A
  // single dirty batch can occasionally span every region, so the
  // reuse requirement is cumulative rather than per round.
  EXPECT_GT(hits_after_ingest, 0u);
  auto s = cache.stats();
  EXPECT_GT(s.invalidations, 0u) << "ingest must invalidate touched regions";
  EXPECT_GT(s.hits, 0u);
}

// --- server: plan-cache / fragment-cache interplay ---

class FragmentServerTest : public ::testing::Test {
 protected:
  void StartServer() {
    server::ServerOptions options;
    auto srv = server::Server::Start(options);
    ASSERT_TRUE(srv.ok()) << srv.status().ToString();
    server_ = std::move(*srv);
  }

  std::unique_ptr<server::Client> MustConnect() {
    auto client = server::Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(*client) : nullptr;
  }

  std::unique_ptr<server::Server> server_;
};

TEST_F(FragmentServerTest, PlanCacheHitsWhileFragmentsInvalidateUnderFeed) {
  StartServer();
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Command(".gen 4 10").ok());
  for (const std::string& def : workload::StandardRuleDefinitions(3)) {
    ASSERT_TRUE(client->Command(".rule " + def).ok());
  }
  const std::string sql = "SELECT count(*) FROM caseR";

  // Warm both caches.
  auto first = client->Query(sql);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = client->Query(sql);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->cache, server::CacheOutcome::kHit) << "plan cache";
  auto warm = server_->fragment_cache_stats();
  EXPECT_GT(warm.hits, 0u) << "fragment cache";
  EXPECT_GT(warm.inserts, 0u);

  // Live ingest: the plan cache keys on data/stats versions (a .feed
  // epoch does not bump them — rewrite decisions stay valid), while the
  // fragment cache invalidates exactly the touched regions.
  ASSERT_TRUE(client->Command(".feed 2 64").ok());
  auto third = client->Query(sql);
  ASSERT_TRUE(third.ok());
  auto after = server_->fragment_cache_stats();
  EXPECT_GT(after.invalidations, warm.invalidations)
      << "feed must invalidate touched fragments";
  EXPECT_EQ(third->rows.size(), 1u);

  // The post-feed stitched count matches an uncached run: disable the
  // fragment cache over the wire and re-run.
  ASSERT_TRUE(client->Command(".cache fragment off").ok());
  auto uncached = client->Query(sql);
  ASSERT_TRUE(uncached.ok());
  EXPECT_EQ(Exact(third->rows), Exact(uncached->rows));
  ASSERT_TRUE(client->Command(".cache fragment on").ok());

  // .cache stats reports both caches.
  auto stats = client->Command(".cache stats");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("plan cache:"), std::string::npos);
  EXPECT_NE(stats->find("fragment cache:"), std::string::npos);
  EXPECT_NE(stats->find("resident bytes"), std::string::npos);
}

TEST_F(FragmentServerTest, ExplainCarriesFragmentHeaderAndRegionDetail) {
  StartServer();
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Command(".gen 4 10").ok());
  for (const std::string& def : workload::StandardRuleDefinitions(3)) {
    ASSERT_TRUE(client->Command(".rule " + def).ok());
  }
  ASSERT_TRUE(client->Set("explain", "on").ok());
  const std::string sql = "SELECT count(*) FROM caseR";

  auto cold = client->Query(sql);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_NE(cold->explain.find("fragments: hit=0"), std::string::npos)
      << cold->explain;
  auto warm = client->Query(sql);
  ASSERT_TRUE(warm.ok());
  EXPECT_NE(warm->explain.find("fragments: hit="), std::string::npos);
  EXPECT_NE(warm->explain.find("miss=0"), std::string::npos) << warm->explain;
  // Verbose mode: per-region hit/miss lines.
  ASSERT_TRUE(client->Set("candidates", "on").ok());
  auto verbose = client->Query(sql);
  ASSERT_TRUE(verbose.ok());
  EXPECT_NE(verbose->explain.find("region 0"), std::string::npos)
      << verbose->explain;

  // The rewrite note stays deterministic (plan-cache reuse is keyed on
  // it); fragment counters live in the EXPLAIN header only.
  EXPECT_EQ(cold->rewrite_note.find("fragments"), std::string::npos);
  EXPECT_EQ(cold->rewrite_note, warm->rewrite_note);
}

TEST_F(FragmentServerTest, SessionsWithIdenticalCatalogsShareFragments) {
  StartServer();
  auto a = MustConnect();
  auto b = MustConnect();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(a->Command(".gen 4 10").ok());
  for (const std::string& def : workload::StandardRuleDefinitions(3)) {
    ASSERT_TRUE(a->Command(".rule " + def).ok());
    ASSERT_TRUE(b->Command(".rule " + def).ok());
  }
  const std::string sql = "SELECT count(*) FROM caseR";
  auto ra = a->Query(sql);
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  auto before = server_->fragment_cache_stats();
  auto rb = b->Query(sql);
  ASSERT_TRUE(rb.ok());
  auto after = server_->fragment_cache_stats();
  EXPECT_EQ(Exact(ra->rows), Exact(rb->rows));
  EXPECT_GT(after.hits, before.hits)
      << "session b must reuse session a's fragments";
  EXPECT_EQ(after.inserts, before.inserts)
      << "session b must not re-cleanse anything";
}

}  // namespace
}  // namespace rfid
