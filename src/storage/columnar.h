// Compressed columnar encodings for cold row-store segments.
//
// The segmented RowStore (row_store.h) appends rows in fixed 2048-row
// segments behind a published visibility watermark. Once a segment is
// *cold* — every row published, no in-place mutation since — its rows are
// immutable for the rest of the table's life (ingest only appends above
// the watermark; the in-place mutators below invalidate encodings). That
// makes a per-segment columnar encoding a pure cache over the row store:
// scans may read either representation and must observe identical values.
//
// Per column a segment stores one of four encodings, chosen by the
// encoder from the segment's value distribution:
//   kPlain   — tag/payload lanes, a direct columnar copy (any column).
//   kRle     — runs of bit-identical values; the fallback for long runs
//              of equal timestamps/locations and all-NULL columns.
//   kDict    — sorted distinct string dictionary + per-row codes; string
//              predicates become binary searches plus integer code
//              compares (dictionary-compare before decode).
//   kBitPack — base + w-bit deltas for the int64 family; bulk-unpacks
//              into a dense lane for the SIMD compare kernels.
// "Bit-identical" is literal: doubles are grouped/round-tripped by bit
// pattern, so -0.0 vs 0.0 and NaN payloads survive encode/decode.
//
// Each column also carries a zone map (min/max/null_count computed with
// Value::Compare semantics) used to skip whole segments ahead of morsel
// dispatch. Zone maps are marked non-prunable when Compare is not a
// total order over the segment's values (NaN doubles, mixed tags), so
// pruning never changes results.
//
// A ColumnarDirectory on each Table publishes encoded segments under a
// mutex (one lock per 2048 rows on the scan path); readers pin segments
// by shared_ptr so invalidation can never free memory under a scan.
#ifndef RFID_STORAGE_COLUMNAR_H_
#define RFID_STORAGE_COLUMNAR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/value.h"
#include "storage/row_store.h"

namespace rfid {

class Database;

/// Whether tables encode cold segments and scans use them. Always on; the
/// row store survives as the reference path the columnar tests compare
/// against. SetColumnarForTest: -1 restores the default, 0 forces the row
/// store, 1 forces columnar.
bool ColumnarEnabled();
void SetColumnarForTest(int mode);

enum class ColumnEncoding : uint8_t { kPlain = 0, kRle = 1, kDict = 2, kBitPack = 3 };
const char* ColumnEncodingName(ColumnEncoding e);

/// Direct columnar copy: a tag lane (DataType per row; kNull doubles as
/// the null marker, mirroring ColumnVector) plus payload lanes.
struct PlainColumn {
  std::vector<uint8_t> tags;
  std::vector<int64_t> data;
  std::vector<std::string> strs;  // sized only when a string is present
};

/// Run-length encoding over bit-identical values. ends[r] is the
/// exclusive row offset where run r stops; ends.back() == num_rows.
struct RleColumn {
  std::vector<uint8_t> tags;
  std::vector<int64_t> data;
  std::vector<std::string> strs;  // sized only when a string run exists
  std::vector<uint32_t> ends;
};

/// String dictionary: `dict` is sorted ascending (std::string order ==
/// Value::Compare order for strings) and distinct; codes[i] indexes it,
/// kNullCode marks NULL.
struct DictColumn {
  static constexpr uint32_t kNullCode = UINT32_MAX;
  std::vector<std::string> dict;
  std::vector<uint32_t> codes;
};

/// Bit-packed int64 family: value i = base + w-bit little-endian-bit
/// delta at bit offset i*w. NULL rows (bit set in `nulls`, empty when
/// none) pack delta 0. `tag` is the column's non-null DataType.
struct BitPackColumn {
  uint8_t tag = 0;
  uint8_t width = 0;  // 0..32; 0 means every non-null value equals base
  int64_t base = 0;
  std::vector<uint64_t> words;
  std::vector<uint64_t> nulls;
};

/// Per-column min/max for segment skipping. `prunable` is false when the
/// map must not be used (no non-null values, NaN doubles, mixed tags).
struct ZoneMap {
  Value min;
  Value max;
  uint32_t null_count = 0;
  bool prunable = false;
};

struct EncodedColumn {
  std::variant<PlainColumn, RleColumn, DictColumn, BitPackColumn> rep;

  ColumnEncoding encoding() const {
    return static_cast<ColumnEncoding>(rep.index());
  }
  const PlainColumn* plain() const { return std::get_if<PlainColumn>(&rep); }
  const RleColumn* rle() const { return std::get_if<RleColumn>(&rep); }
  const DictColumn* dict() const { return std::get_if<DictColumn>(&rep); }
  const BitPackColumn* bitpack() const {
    return std::get_if<BitPackColumn>(&rep);
  }
};

/// One encoded 2048-row (or shorter, for tests) segment: column
/// encodings plus zone maps, immutable once built.
struct EncodedSegment {
  uint64_t base_row = 0;
  uint32_t num_rows = 0;
  std::vector<EncodedColumn> columns;
  std::vector<ZoneMap> zones;
  uint64_t approx_bytes = 0;

  /// Distinct encodings present, e.g. "dict,rle" (enum order).
  std::string EncodingSummary() const;
};

using EncodedSegmentPtr = std::shared_ptr<const EncodedSegment>;

/// Unpacks the w-bit delta for row i of a bit-packed column.
inline int64_t BitPackValueAt(const BitPackColumn& c, size_t i) {
  if (c.width == 0) return c.base;
  const size_t bit = i * c.width;
  const uint64_t lo = c.words[bit >> 6] >> (bit & 63);
  uint64_t delta = lo;
  const unsigned used = 64 - static_cast<unsigned>(bit & 63);
  if (used < c.width) {
    delta |= c.words[(bit >> 6) + 1] << used;
  }
  delta &= (uint64_t{1} << c.width) - 1;
  return static_cast<int64_t>(static_cast<uint64_t>(c.base) + delta);
}

inline bool BitPackIsNull(const BitPackColumn& c, size_t i) {
  return !c.nulls.empty() && ((c.nulls[i >> 6] >> (i & 63)) & 1) != 0;
}

/// Random access into any encoding (RLE does a binary search over run
/// ends; the scan kernels iterate runs directly instead).
Value DecodeValueAt(const EncodedColumn& col, size_t i);

/// Appends the decoded row at segment offset i to *out (out is cleared).
void DecodeRowInto(const EncodedSegment& seg, size_t i, Row* out);

/// Encodes rows [base_row, base_row + num_rows) of the store; all rows
/// must be published (below an acquired watermark). Deterministic: the
/// same rows always produce the same encoding.
EncodedSegmentPtr EncodeSegment(const RowStore& store, uint64_t base_row,
                                uint32_t num_rows, size_t num_columns);

/// Serialized form (checkpoint sidecar payload): appends a
/// self-delimiting byte image of the segment to *out.
void AppendSegmentBytes(const EncodedSegment& seg, std::string* out);

/// Parses a segment written by AppendSegmentBytes starting at *offset;
/// advances *offset past it. Bounds-checked: corrupt input yields an
/// error, never UB.
Result<EncodedSegmentPtr> ParseSegmentBytes(std::string_view bytes,
                                            size_t* offset);

/// Per-table directory of encoded segments, indexed by segment number
/// (row id >> RowStore::kSegmentBits). Publication and lookup are
/// mutex-guarded; segments themselves are immutable and shared.
class ColumnarDirectory {
 public:
  EncodedSegmentPtr Get(size_t segment) const;
  void Install(size_t segment, EncodedSegmentPtr seg);
  /// Drops every encoded segment (in-place mutation of the row store).
  void InvalidateAll();

  size_t encoded_segments() const;
  uint64_t encoded_bytes() const;
  /// Dense snapshot for checkpointing (null entries elided by caller).
  std::vector<EncodedSegmentPtr> SnapshotAll() const;

 private:
  mutable Mutex mu_{LockRank::kColumnarDirectory};
  std::vector<EncodedSegmentPtr> segments_ GUARDED_BY(mu_);
};

/// Process-wide columnar activity counters (monotonic; for `.stats` and
/// EXPLAIN surfaces).
struct ColumnarCounters {
  uint64_t segments_encoded = 0;
  uint64_t segments_invalidated = 0;
  uint64_t segments_scanned = 0;   // encoded segments served to scans
  uint64_t segments_skipped = 0;   // zone-map skips ahead of scan work
};
ColumnarCounters GlobalColumnarCounters();
void AddColumnarEncoded(uint64_t n);
void AddColumnarInvalidated(uint64_t n);
void AddColumnarScanned(uint64_t n);
void AddColumnarSkipped(uint64_t n);

/// Checkpoint sidecar: saves every table's encoded segments to `path`
/// ("RFIDCOL1" image, trailing CRC32). Written inside the checkpoint tmp
/// directory, so atomicity rides on the directory rename.
Status SaveColumnarSidecar(const std::string& path, const Database& db);

/// Restores encoded segments from a sidecar into matching tables.
/// A missing file is not an error (pre-columnar checkpoints); a corrupt
/// file degrades to row-store scans rather than failing recovery.
Status LoadColumnarSidecar(const std::string& path, Database* db);

}  // namespace rfid

#endif  // RFID_STORAGE_COLUMNAR_H_
