// Prepared-statement plan cache for the SQL server front end.
//
// Deferred cleansing pays a per-query rewrite tax: the rewriter derives
// expanded conditions, generates candidates, and costs each one with the
// planner, on every query and before any row is read. Under repeated
// traffic that work is identical query over identical catalog over
// identical statistics, so the server memoizes the *rewrite decision*:
// the chosen rewritten SQL, strategy, and diagnostics.
//
// Key: the SQL text plus every session setting that feeds the rewriter
// (strategy, rewriting on/off, aggressive pushdown) plus the session's
// rule-catalog fingerprint — sessions with identical catalogs share
// entries; divergent catalogs cannot collide. Each entry additionally
// records the (data_version, stats_version) pair it was derived from;
// a lookup under bumped versions counts as an *invalidation* (the stale
// entry is dropped and re-derived), distinct from a plain miss. Rule-set
// changes move the fingerprint, so they surface as misses on the new
// fingerprint while the old entries age out of the LRU.
//
// Thread-safe; bounded LRU; enable/disable at runtime (the throughput
// bench measures cache-on vs cache-off).
#ifndef RFID_SERVER_PLAN_CACHE_H_
#define RFID_SERVER_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <string>

#include "common/sync.h"
#include "rewrite/rewriter.h"
#include "server/protocol.h"

namespace rfid::server {

struct PlanKey {
  std::string sql;
  RewriteStrategy strategy = RewriteStrategy::kAuto;
  bool rewriting_enabled = true;
  bool aggressive_pushdown = false;
  uint64_t catalog_fingerprint = 0;

  bool operator<(const PlanKey& other) const;
};

/// The memoized rewrite decision plus the versions it was derived under.
struct CachedPlan {
  std::string rewritten_sql;
  RewriteStrategy chosen = RewriteStrategy::kNone;
  double estimated_cost = 0;
  std::string rewrite_note;  // preformatted "[rewritten: ...]" line
  std::string warnings;      // preformatted lint findings
  uint64_t data_version = 0;   // bulk loads / generator runs
  uint64_t stats_version = 0;  // ingest statistics generation
};

class PlanCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t invalidations = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
  };

  explicit PlanCache(size_t capacity, bool enabled = true)
      : capacity_(capacity), enabled_(enabled) {}

  /// Returns the cached plan when the key matches and its versions equal
  /// the current ones. Sets *outcome to kHit, kMiss, or kInvalidated
  /// (entry existed but was derived under older versions; it has been
  /// dropped). A disabled cache always reports kMiss and records nothing.
  std::optional<CachedPlan> Lookup(const PlanKey& key, uint64_t data_version,
                                   uint64_t stats_version,
                                   CacheOutcome* outcome);

  /// Inserts (or replaces) the entry, evicting the least recently used
  /// entry past capacity. No-op while disabled.
  void Insert(const PlanKey& key, CachedPlan plan);

  void set_enabled(bool enabled);
  bool enabled() const;
  void Clear();

  Stats stats() const;

 private:
  using LruList = std::list<PlanKey>;
  struct Entry {
    CachedPlan plan;
    LruList::iterator lru;
  };

  mutable Mutex mu_{LockRank::kPlanCache};
  const size_t capacity_;  // immutable after construction
  bool enabled_ GUARDED_BY(mu_);
  std::map<PlanKey, Entry> entries_ GUARDED_BY(mu_);
  LruList lru_ GUARDED_BY(mu_);  // front = most recently used
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace rfid::server

#endif  // RFID_SERVER_PLAN_CACHE_H_
