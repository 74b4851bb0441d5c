#include "cache/fragment_cache.h"

#include <algorithm>

#include "common/string_util.h"
#include "exec/exec_context.h"

namespace rfid::cache {

namespace {

uint64_t HashMix(uint64_t h, std::string_view s) {
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;  // FNV-1a
  }
  h ^= '\x1f';
  h *= 1099511628211ULL;
  return h;
}

bool ValueLess(const Value& a, const Value& b) { return a.Compare(b) < 0; }

}  // namespace

size_t RegionScheme::RegionOf(const Value& v) const {
  if (boundaries.empty()) return 0;
  if (v.is_null() || !TypesComparable(v.type(), boundaries.front().type())) {
    return 0;
  }
  // Region r covers [b[r-1], b[r]); the region index is the number of
  // boundaries <= v. lower_bound counts boundaries < v; +1 when v sits
  // exactly on a boundary (it belongs to the region starting there).
  auto le = std::lower_bound(boundaries.begin(), boundaries.end(), v, ValueLess);
  return static_cast<size_t>(le - boundaries.begin()) +
         ((le != boundaries.end() && le->Compare(v) == 0) ? 1 : 0);
}

std::string RegionScheme::RegionPredicateSql(size_t region) const {
  if (boundaries.empty()) return "";
  const std::string col = ckey;
  if (region == 0) {
    return col + " IS NULL OR " + col + " < " + boundaries[0].ToSqlLiteral();
  }
  if (region == boundaries.size()) {
    return col + " >= " + boundaries[region - 1].ToSqlLiteral();
  }
  return col + " >= " + boundaries[region - 1].ToSqlLiteral() + " AND " + col +
         " < " + boundaries[region].ToSqlLiteral();
}

std::string RegionScheme::RegionLabel(size_t region) const {
  if (boundaries.empty()) return "[*)";
  if (region == 0) return "[null.." + boundaries[0].ToString() + ")";
  if (region == boundaries.size()) {
    return "[" + boundaries[region - 1].ToString() + "..)";
  }
  return "[" + boundaries[region - 1].ToString() + ".." +
         boundaries[region].ToString() + ")";
}

bool FragmentKey::operator<(const FragmentKey& other) const {
  if (table != other.table) return table < other.table;
  if (rule_fingerprint != other.rule_fingerprint) {
    return rule_fingerprint < other.rule_fingerprint;
  }
  if (scheme_fingerprint != other.scheme_fingerprint) {
    return scheme_fingerprint < other.scheme_fingerprint;
  }
  return region < other.region;
}

RegionSchemePtr FragmentCache::SchemeFor(const Table& table,
                                         std::string_view ckey,
                                         uint64_t watermark) {
  MutexLock lock(&mu_);
  if (!options_.enabled) return nullptr;
  const std::string table_lower = ToLower(table.name());
  const std::string ckey_lower = ToLower(ckey);
  TableState* state = StateFor(table_lower);
  if (state->scheme != nullptr) {
    return state->scheme->ckey == ckey_lower ? state->scheme : nullptr;
  }

  int slot = table.schema().FindColumn(ckey_lower);
  if (slot < 0) return nullptr;

  auto scheme = std::make_shared<RegionScheme>();
  scheme->table = table_lower;
  scheme->ckey = ckey_lower;
  scheme->ckey_slot = static_cast<size_t>(slot);

  // Stride-sample the visible ckey values and take quantile boundaries.
  size_t target =
      options_.target_region_rows == 0 ? 1 : options_.target_region_rows;
  size_t want_regions = static_cast<size_t>(watermark) / target;
  want_regions = std::max<size_t>(1, std::min(want_regions, options_.max_regions));
  if (want_regions > 1) {
    constexpr size_t kMaxSample = 4096;
    size_t stride = std::max<uint64_t>(1, watermark / kMaxSample);
    std::vector<Value> sample;
    sample.reserve(kMaxSample + 1);
    for (uint64_t i = 0; i < watermark; i += stride) {
      const Row& row = table.row(static_cast<size_t>(i));
      const Value& v = row[scheme->ckey_slot];
      if (v.is_null()) continue;
      if (!sample.empty() && !TypesComparable(v.type(), sample.front().type())) {
        sample.clear();  // mixed types: give up on partitioning
        break;
      }
      sample.push_back(v);
    }
    if (sample.size() >= want_regions) {
      std::sort(sample.begin(), sample.end(), ValueLess);
      for (size_t r = 1; r < want_regions; ++r) {
        const Value& b = sample[r * sample.size() / want_regions];
        if (!scheme->boundaries.empty() &&
            scheme->boundaries.back().Compare(b) >= 0) {
          continue;  // dedup: boundaries must be strictly ascending
        }
        scheme->boundaries.push_back(b);
      }
    }
  }

  uint64_t fp = 1469598103934665603ULL;
  fp = HashMix(fp, scheme->table);
  fp = HashMix(fp, scheme->ckey);
  for (const Value& b : scheme->boundaries) fp = HashMix(fp, b.ToString());
  scheme->fingerprint = fp;

  state->scheme = scheme;
  state->known_watermark = std::max(state->known_watermark, watermark);
  // Every region's content is only known "as of" the first-seen
  // watermark: the arrival history of the rows already in the table is
  // unknown, so a query pinned below it must not be served fragments
  // built above it (and vice versa). Seeding touched with the watermark
  // makes both directions fail the validity check. The seed is the
  // highest watermark seen so far, not the caller's: batches notified
  // before the scheme existed (OnIngest recorded only known_watermark)
  // may lie above a caller pinned at an older snapshot, and their
  // regions are unknown.
  state->touched.assign(scheme->num_regions(), state->known_watermark);
  return scheme;
}

FragmentRowsPtr FragmentCache::Lookup(const FragmentKey& key,
                                      uint64_t query_watermark) {
  MutexLock lock(&mu_);
  if (!options_.enabled) return nullptr;
  TableState* state = StateFor(key.table);
  if (query_watermark > state->known_watermark) {
    AbsorbUnknownAdvance(key.table, state, query_watermark);
  }
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  uint64_t touched = (state->scheme != nullptr &&
                      key.scheme_fingerprint == state->scheme->fingerprint &&
                      key.region < state->touched.size())
                         ? state->touched[key.region]
                         : UINT64_MAX;  // superseded scheme: always stale
  if (touched > it->second.built_watermark || touched > query_watermark) {
    DropEntry(it, /*eviction=*/false);
    ++stats_.misses;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  ++stats_.hits;
  return it->second.rows;
}

void FragmentCache::Insert(const FragmentKey& key, uint64_t built_watermark,
                           std::vector<Row> rows) {
  MutexLock lock(&mu_);
  if (!options_.enabled) return;
  TableState* state = StateFor(key.table);
  if (state->scheme == nullptr ||
      key.scheme_fingerprint != state->scheme->fingerprint ||
      key.region >= state->touched.size()) {
    return;
  }
  if (built_watermark > state->known_watermark) {
    AbsorbUnknownAdvance(key.table, state, built_watermark);
  }
  if (state->touched[key.region] > built_watermark) return;  // stale build

  auto it = entries_.find(key);
  if (it != entries_.end()) DropEntry(it, /*eviction=*/false);

  size_t bytes = sizeof(Entry) + sizeof(FragmentKey);
  for (const Row& row : rows) {
    bytes += static_cast<size_t>(ApproxRowBytes(row));
  }
  if (bytes > options_.capacity_bytes) return;  // never fits; skip

  Entry entry;
  entry.rows = std::make_shared<const std::vector<Row>>(std::move(rows));
  entry.built_watermark = built_watermark;
  entry.bytes = bytes;
  lru_.push_front(key);
  entry.lru = lru_.begin();
  entries_.emplace(key, std::move(entry));
  resident_bytes_ += bytes;
  ++stats_.inserts;
  EvictToCapacity();
}

void FragmentCache::OnIngest(const Table& table, const std::vector<Row>& rows,
                             uint64_t new_watermark) {
  MutexLock lock(&mu_);
  if (!options_.enabled) return;
  const std::string table_lower = ToLower(table.name());
  // Record the watermark even before any scheme exists: SchemeFor seeds
  // its touch marks from it, so a batch notified now stays invalidating
  // for fragments built below it by queries pinned at older snapshots.
  TableState* state = StateFor(table_lower);
  state->known_watermark = std::max(state->known_watermark, new_watermark);
  if (state->scheme == nullptr) return;
  const RegionScheme& scheme = *state->scheme;
  for (const Row& row : rows) {
    if (scheme.ckey_slot >= row.size()) {
      AbsorbUnknownAdvance(table_lower, state, new_watermark);
      return;
    }
    size_t r = scheme.RegionOf(row[scheme.ckey_slot]);
    state->touched[r] = std::max(state->touched[r], new_watermark);
  }
  // Eagerly drop entries these touches invalidated so resident bytes
  // track reality (the lazy check in Lookup would catch them too).
  auto it = entries_.lower_bound(FragmentKey{table_lower, 0, 0, 0});
  while (it != entries_.end() && it->first.table == table_lower) {
    auto next = std::next(it);
    uint64_t touched = (it->first.scheme_fingerprint == scheme.fingerprint &&
                        it->first.region < state->touched.size())
                           ? state->touched[it->first.region]
                           : UINT64_MAX;
    if (touched > it->second.built_watermark) DropEntry(it, /*eviction=*/false);
    it = next;
  }
}

void FragmentCache::Clear() {
  MutexLock lock(&mu_);
  entries_.clear();
  lru_.clear();
  tables_.clear();
  resident_bytes_ = 0;
}

void FragmentCache::set_enabled(bool enabled) {
  MutexLock lock(&mu_);
  options_.enabled = enabled;
  if (!enabled) {
    entries_.clear();
    lru_.clear();
    tables_.clear();
    resident_bytes_ = 0;
  }
}

bool FragmentCache::enabled() const {
  MutexLock lock(&mu_);
  return options_.enabled;
}

void FragmentCache::set_capacity_bytes(size_t bytes) {
  MutexLock lock(&mu_);
  options_.capacity_bytes = bytes;
  EvictToCapacity();
}

size_t FragmentCache::capacity_bytes() const {
  MutexLock lock(&mu_);
  return options_.capacity_bytes;
}

FragmentCache::Stats FragmentCache::stats() const {
  MutexLock lock(&mu_);
  Stats s = stats_;
  s.entries = entries_.size();
  s.resident_bytes = resident_bytes_;
  return s;
}

FragmentCacheOptions FragmentCache::options() const {
  MutexLock lock(&mu_);
  return options_;
}

FragmentCache::TableState* FragmentCache::StateFor(
    const std::string& table_lower) {
  return &tables_[table_lower];
}

void FragmentCache::AbsorbUnknownAdvance(const std::string& table_lower,
                                         TableState* state,
                                         uint64_t watermark) {
  state->known_watermark = watermark;
  for (uint64_t& t : state->touched) t = std::max(t, watermark);
  DropTableEntries(table_lower);
}

void FragmentCache::DropEntry(std::map<FragmentKey, Entry>::iterator it,
                              bool eviction) {
  resident_bytes_ -= it->second.bytes;
  lru_.erase(it->second.lru);
  entries_.erase(it);
  if (eviction) {
    ++stats_.evictions;
  } else {
    ++stats_.invalidations;
  }
}

void FragmentCache::DropTableEntries(const std::string& table_lower) {
  auto it = entries_.lower_bound(FragmentKey{table_lower, 0, 0, 0});
  while (it != entries_.end() && it->first.table == table_lower) {
    auto next = std::next(it);
    DropEntry(it, /*eviction=*/false);
    it = next;
  }
}

void FragmentCache::EvictToCapacity() {
  while (resident_bytes_ > options_.capacity_bytes && !lru_.empty()) {
    auto it = entries_.find(lru_.back());
    DropEntry(it, /*eviction=*/true);
  }
}

}  // namespace rfid::cache
