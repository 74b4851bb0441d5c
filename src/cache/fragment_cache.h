// Cleansed-fragment cache: memoized results of applying a rule set to a
// region of the read store, shared across queries and sessions.
//
// Deferred cleansing re-derives the same window chains over the same raw
// reads on every query (the rewrite, then the full cleansing sort per
// q1). This cache makes deferred cleansing *incremental*: the read table
// is partitioned into regions — contiguous cluster-key value ranges, so
// every compiled rule window (which partitions by the rule's ckey)
// distributes over them — and the cleansed rows of each region are
// memoized keyed by
//
//   (table, rule-set fingerprint, region-scheme fingerprint, region id).
//
// The rule-set fingerprint hashes the *content* of the rules that apply
// to the table, so per-session catalogs (SQL server) share fragments
// whenever their definitions match, regardless of unrelated rules.
//
// Invalidation is watermark-based. The ingest pipeline notifies the cache
// of every batch before the rows become visible; the cache records, per
// region, the highest watermark at which the region's content changed
// (`touched`). An entry built at watermark Wb answers a query pinned at
// watermark Wq iff touched[region] <= min(Wb, Wq): the region's rows
// below both watermarks are then identical (the store is append-only
// between Clear() calls), so epoch k+1 invalidates only touched regions.
// A watermark the cache was never notified about (direct appends without
// a pipeline) is absorbed conservatively: every region is marked touched
// at that watermark and the table's entries are dropped.
//
// Memory is bounded (LRU by resident bytes, ApproxRowBytes accounting)
// and observable; the SQL server carves the capacity out of its global
// admission pool. Thread-safe throughout: one mutex, taken by query
// threads (Lookup/Insert) and by the ingest writer (OnIngest) — the
// writer already holds the pipeline lock, and the cache never calls out
// while holding its own, so the order pipeline -> cache is acyclic.
#ifndef RFID_CACHE_FRAGMENT_CACHE_H_
#define RFID_CACHE_FRAGMENT_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"
#include "storage/table.h"

namespace rfid::cache {

/// Partition of a table's rows into contiguous cluster-key value ranges.
/// Region 0 additionally absorbs NULL cluster keys (they sort first in
/// every cleansing chain's output order). Immutable once built.
struct RegionScheme {
  std::string table;  // lower-cased
  std::string ckey;   // lower-cased column name
  size_t ckey_slot = 0;
  /// Ascending, non-null, distinct boundary values; region r covers
  /// [boundaries[r-1], boundaries[r]) with the first region open below
  /// and the last open above. Empty = a single region.
  std::vector<Value> boundaries;
  uint64_t fingerprint = 0;

  size_t num_regions() const { return boundaries.size() + 1; }
  /// Region of a cluster-key value (NULL and non-comparable values -> 0).
  size_t RegionOf(const Value& v) const;
  /// SQL predicate selecting exactly this region's rows, over the
  /// unqualified ckey column (for the restricted-input WITH clause).
  std::string RegionPredicateSql(size_t region) const;
  /// Human-readable range, for verbose EXPLAIN output.
  std::string RegionLabel(size_t region) const;
};

using RegionSchemePtr = std::shared_ptr<const RegionScheme>;
using FragmentRowsPtr = std::shared_ptr<const std::vector<Row>>;

struct FragmentKey {
  std::string table;  // lower-cased
  uint64_t rule_fingerprint = 0;
  uint64_t scheme_fingerprint = 0;
  size_t region = 0;

  bool operator<(const FragmentKey& other) const;
};

struct FragmentCacheOptions {
  size_t capacity_bytes = 64ULL << 20;
  /// Region sizing: aim for ~this many rows per region, capped at
  /// max_regions regions per table.
  size_t target_region_rows = 4096;
  size_t max_regions = 64;
  bool enabled = true;
};

class FragmentCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t invalidations = 0;  // entries dropped as stale
    uint64_t evictions = 0;      // entries dropped for capacity
    uint64_t inserts = 0;
    size_t entries = 0;
    size_t resident_bytes = 0;
  };

  explicit FragmentCache(FragmentCacheOptions options = {})
      : options_(options) {}

  /// Returns (building it on first use) the region scheme for the table.
  /// `watermark` bounds the rows sampled for boundaries and seeds the
  /// table's known watermark; every region starts touched at the higher
  /// of it and any watermark already notified. One scheme per table: a request with a
  /// different ckey than the existing scheme's returns nullptr (callers
  /// fall back to uncached cleansing). Nullptr while disabled.
  RegionSchemePtr SchemeFor(const Table& table, std::string_view ckey,
                            uint64_t watermark);

  /// Returns the cached fragment when it is valid for a query pinned at
  /// `query_watermark`, else nullptr. Stale entries are dropped (counted
  /// as invalidations); a disabled cache always misses and records
  /// nothing.
  FragmentRowsPtr Lookup(const FragmentKey& key, uint64_t query_watermark);

  /// Inserts a fragment built from the rows below `built_watermark`.
  /// Rejected (dropped silently) when the region was touched past the
  /// build watermark or the scheme has been superseded. No-op while
  /// disabled.
  void Insert(const FragmentKey& key, uint64_t built_watermark,
              std::vector<Row> rows);

  /// Ingest notification: `rows` are about to become visible, advancing
  /// the table's watermark to `new_watermark`. Marks their regions
  /// touched and eagerly drops entries those touches invalidate. Called
  /// by the ingest writer *before* the rows are published, so no reader
  /// can observe new rows with un-bumped touch marks.
  void OnIngest(const Table& table, const std::vector<Row>& rows,
                uint64_t new_watermark);

  /// Drops everything: entries, schemes, watermark state. For bulk
  /// loads / recovery, which break the append-only assumption.
  void Clear();

  void set_enabled(bool enabled);
  bool enabled() const;
  void set_capacity_bytes(size_t bytes);
  size_t capacity_bytes() const;

  Stats stats() const;
  /// Snapshot by value: options_ (enabled, capacity) mutates under mu_,
  /// so handing out a reference would let callers read it unlocked.
  FragmentCacheOptions options() const;

 private:
  using LruList = std::list<FragmentKey>;
  struct Entry {
    FragmentRowsPtr rows;
    uint64_t built_watermark = 0;
    size_t bytes = 0;
    LruList::iterator lru;
  };
  struct TableState {
    RegionSchemePtr scheme;
    uint64_t known_watermark = 0;
    /// Per region: highest watermark at which its content changed.
    std::vector<uint64_t> touched;
  };

  TableState* StateFor(const std::string& table_lower) REQUIRES(mu_);
  void AbsorbUnknownAdvance(const std::string& table_lower, TableState* state,
                            uint64_t watermark) REQUIRES(mu_);
  void DropEntry(std::map<FragmentKey, Entry>::iterator it, bool eviction)
      REQUIRES(mu_);
  void DropTableEntries(const std::string& table_lower) REQUIRES(mu_);
  void EvictToCapacity() REQUIRES(mu_);

  mutable Mutex mu_{LockRank::kFragmentCache};
  FragmentCacheOptions options_ GUARDED_BY(mu_);  // enabled/capacity mutate
  std::map<std::string, TableState> tables_ GUARDED_BY(mu_);
  std::map<FragmentKey, Entry> entries_ GUARDED_BY(mu_);
  LruList lru_ GUARDED_BY(mu_);  // front = most recently used
  size_t resident_bytes_ GUARDED_BY(mu_) = 0;
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace rfid::cache

#endif  // RFID_CACHE_FRAGMENT_CACHE_H_
