#include "storage/columnar.h"

#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <unordered_set>

#include "common/io.h"
#include "common/string_util.h"
#include "storage/catalog.h"

namespace rfid {

namespace {

// -1 = default (on); 0 = forced off; 1 = forced on.
std::atomic<int> g_override_columnar{-1};

std::atomic<uint64_t> g_encoded{0};
std::atomic<uint64_t> g_invalidated{0};
std::atomic<uint64_t> g_scanned{0};
std::atomic<uint64_t> g_skipped{0};

uint8_t TagOf(const Value& v) { return static_cast<uint8_t>(v.type()); }

int64_t PayloadOf(const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
    case DataType::kString:
      return 0;
    case DataType::kDouble:
      return std::bit_cast<int64_t>(v.double_value());
    default:
      return v.int64_value();
  }
}

Value MakeValue(uint8_t tag, int64_t data, const std::string* str) {
  switch (static_cast<DataType>(tag)) {
    case DataType::kNull:
      return Value::Null();
    case DataType::kBool:
      return Value::Bool(data != 0);
    case DataType::kInt64:
      return Value::Int64(data);
    case DataType::kDouble:
      return Value::Double(std::bit_cast<double>(data));
    case DataType::kString:
      return Value::String(str != nullptr ? *str : std::string());
    case DataType::kTimestamp:
      return Value::Timestamp(data);
    case DataType::kInterval:
      return Value::Interval(data);
  }
  return Value::Null();
}

bool IsIntFamily(uint8_t tag) {
  switch (static_cast<DataType>(tag)) {
    case DataType::kBool:
    case DataType::kInt64:
    case DataType::kTimestamp:
    case DataType::kInterval:
      return true;
    default:
      return false;
  }
}

// Bit-identical equality for run grouping: same tag, same payload bits
// (doubles by bit pattern, so distinct NaNs / -0.0 vs 0.0 stay distinct
// and decode reproduces the exact input).
bool BitIdentical(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.type() == DataType::kNull) return true;
  if (a.type() == DataType::kString) {
    return a.string_value() == b.string_value();
  }
  return PayloadOf(a) == PayloadOf(b);
}

}  // namespace

bool ColumnarEnabled() {
  return g_override_columnar.load(std::memory_order_relaxed) != 0;
}

void SetColumnarForTest(int mode) {
  g_override_columnar.store(mode < 0 ? -1 : (mode != 0 ? 1 : 0),
                            std::memory_order_relaxed);
}

const char* ColumnEncodingName(ColumnEncoding e) {
  switch (e) {
    case ColumnEncoding::kPlain: return "plain";
    case ColumnEncoding::kRle: return "rle";
    case ColumnEncoding::kDict: return "dict";
    case ColumnEncoding::kBitPack: return "bitpack";
  }
  return "?";
}

std::string EncodedSegment::EncodingSummary() const {
  bool seen[4] = {false, false, false, false};
  for (const EncodedColumn& c : columns) {
    seen[static_cast<size_t>(c.encoding())] = true;
  }
  std::string out;
  for (size_t e = 0; e < 4; ++e) {
    if (!seen[e]) continue;
    if (!out.empty()) out += ',';
    out += ColumnEncodingName(static_cast<ColumnEncoding>(e));
  }
  return out;
}

Value DecodeValueAt(const EncodedColumn& col, size_t i) {
  switch (col.encoding()) {
    case ColumnEncoding::kPlain: {
      const PlainColumn& p = *col.plain();
      return MakeValue(p.tags[i], p.data[i],
                       p.strs.empty() ? nullptr : &p.strs[i]);
    }
    case ColumnEncoding::kRle: {
      const RleColumn& r = *col.rle();
      const size_t run = static_cast<size_t>(
          std::upper_bound(r.ends.begin(), r.ends.end(),
                           static_cast<uint32_t>(i)) -
          r.ends.begin());
      return MakeValue(r.tags[run], r.data[run],
                       r.strs.empty() ? nullptr : &r.strs[run]);
    }
    case ColumnEncoding::kDict: {
      const DictColumn& d = *col.dict();
      const uint32_t code = d.codes[i];
      if (code == DictColumn::kNullCode) return Value::Null();
      return Value::String(d.dict[code]);
    }
    case ColumnEncoding::kBitPack: {
      const BitPackColumn& b = *col.bitpack();
      if (BitPackIsNull(b, i)) return Value::Null();
      return MakeValue(b.tag, BitPackValueAt(b, i), nullptr);
    }
  }
  return Value::Null();
}

void DecodeRowInto(const EncodedSegment& seg, size_t i, Row* out) {
  out->clear();
  out->reserve(seg.columns.size());
  for (const EncodedColumn& col : seg.columns) {
    out->push_back(DecodeValueAt(col, i));
  }
}

namespace {

uint64_t ColumnApproxBytes(const EncodedColumn& col) {
  uint64_t bytes = sizeof(EncodedColumn);
  auto strings = [](const std::vector<std::string>& v) {
    uint64_t b = v.size() * sizeof(std::string);
    for (const std::string& s : v) b += s.size();
    return b;
  };
  switch (col.encoding()) {
    case ColumnEncoding::kPlain: {
      const PlainColumn& p = *col.plain();
      bytes += p.tags.size() + p.data.size() * 8 + strings(p.strs);
      break;
    }
    case ColumnEncoding::kRle: {
      const RleColumn& r = *col.rle();
      bytes += r.tags.size() + r.data.size() * 8 + r.ends.size() * 4 +
               strings(r.strs);
      break;
    }
    case ColumnEncoding::kDict: {
      const DictColumn& d = *col.dict();
      bytes += d.codes.size() * 4 + strings(d.dict);
      break;
    }
    case ColumnEncoding::kBitPack: {
      const BitPackColumn& b = *col.bitpack();
      bytes += b.words.size() * 8 + b.nulls.size() * 8;
      break;
    }
  }
  return bytes;
}

// Builds the zone map and decides the encoding in one pass over the
// segment's values for column c.
struct ColumnProfile {
  uint32_t runs = 0;
  uint32_t null_count = 0;
  uint32_t non_null = 0;
  bool all_string = true;    // every non-null value is a string
  bool any_string = false;   // at least one string value present
  bool int_family = true;    // every non-null value shares one int tag
  uint8_t int_tag = 0;
  bool has_nan = false;
  bool mixed_tags = false;   // >1 distinct non-null tag
  uint8_t first_tag = 0;
  int64_t int_min = 0;
  int64_t int_max = 0;
  const Value* min = nullptr;
  const Value* max = nullptr;
};

ColumnProfile ProfileColumn(const RowStore& store, uint64_t base,
                            uint32_t n, size_t c) {
  ColumnProfile p;
  const Value* prev = nullptr;
  for (uint32_t i = 0; i < n; ++i) {
    const Value& v = store.row(base + i)[c];
    if (prev == nullptr || !BitIdentical(*prev, v)) ++p.runs;
    prev = &v;
    if (v.is_null()) {
      ++p.null_count;
      continue;
    }
    if (p.non_null == 0) {
      p.first_tag = TagOf(v);
    } else if (TagOf(v) != p.first_tag) {
      p.mixed_tags = true;
    }
    if (v.type() == DataType::kString) {
      p.any_string = true;
    } else {
      p.all_string = false;
    }
    if (IsIntFamily(TagOf(v))) {
      const int64_t x = v.int64_value();
      if (p.non_null == 0 || !p.int_family) {
        p.int_min = p.int_max = x;
        p.int_tag = TagOf(v);
      } else {
        p.int_min = std::min(p.int_min, x);
        p.int_max = std::max(p.int_max, x);
      }
      if (p.non_null > 0 && TagOf(v) != p.int_tag) p.int_family = false;
    } else {
      p.int_family = false;
      if (v.type() == DataType::kDouble && std::isnan(v.double_value())) {
        p.has_nan = true;
      }
    }
    ++p.non_null;
    // min/max via Value::Compare — only meaningful if the column turns
    // out prunable (single non-null tag, no NaN); tracked optimistically.
    if (!p.mixed_tags && !p.has_nan) {
      if (p.min == nullptr || v.Compare(*p.min) < 0) p.min = &v;
      if (p.max == nullptr || v.Compare(*p.max) > 0) p.max = &v;
    }
  }
  if (p.non_null == 0) {
    p.all_string = false;
    p.int_family = false;
  }
  return p;
}

EncodedColumn EncodePlain(const RowStore& store, uint64_t base, uint32_t n,
                          size_t c, bool any_string) {
  PlainColumn p;
  p.tags.reserve(n);
  p.data.reserve(n);
  if (any_string) p.strs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    const Value& v = store.row(base + i)[c];
    p.tags.push_back(TagOf(v));
    p.data.push_back(PayloadOf(v));
    if (any_string) {
      p.strs.emplace_back(v.type() == DataType::kString ? v.string_value()
                                                        : std::string());
    }
  }
  return EncodedColumn{std::move(p)};
}

EncodedColumn EncodeRle(const RowStore& store, uint64_t base, uint32_t n,
                        size_t c, bool any_string) {
  RleColumn r;
  const Value* prev = nullptr;
  for (uint32_t i = 0; i < n; ++i) {
    const Value& v = store.row(base + i)[c];
    if (prev != nullptr && BitIdentical(*prev, v)) {
      r.ends.back() = i + 1;
      continue;
    }
    prev = &v;
    r.tags.push_back(TagOf(v));
    r.data.push_back(PayloadOf(v));
    if (any_string) {
      r.strs.emplace_back(v.type() == DataType::kString ? v.string_value()
                                                        : std::string());
    }
    r.ends.push_back(i + 1);
  }
  return EncodedColumn{std::move(r)};
}

EncodedColumn EncodeDict(const RowStore& store, uint64_t base, uint32_t n,
                         size_t c) {
  DictColumn d;
  // Two passes: collect + sort the distinct strings, then emit codes.
  for (uint32_t i = 0; i < n; ++i) {
    const Value& v = store.row(base + i)[c];
    if (!v.is_null()) d.dict.push_back(v.string_value());
  }
  std::sort(d.dict.begin(), d.dict.end());
  d.dict.erase(std::unique(d.dict.begin(), d.dict.end()), d.dict.end());
  d.codes.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    const Value& v = store.row(base + i)[c];
    if (v.is_null()) {
      d.codes.push_back(DictColumn::kNullCode);
      continue;
    }
    const auto it =
        std::lower_bound(d.dict.begin(), d.dict.end(), v.string_value());
    d.codes.push_back(static_cast<uint32_t>(it - d.dict.begin()));
  }
  return EncodedColumn{std::move(d)};
}

EncodedColumn EncodeBitPack(const RowStore& store, uint64_t base, uint32_t n,
                            size_t c, const ColumnProfile& prof,
                            uint8_t width) {
  BitPackColumn b;
  b.tag = prof.int_tag;
  b.base = prof.int_min;
  b.width = width;
  if (width > 0) {
    b.words.assign((static_cast<size_t>(n) * width + 63) / 64, 0);
  }
  if (prof.null_count > 0) b.nulls.assign((n + 63) / 64, 0);
  for (uint32_t i = 0; i < n; ++i) {
    const Value& v = store.row(base + i)[c];
    if (v.is_null()) {
      b.nulls[i >> 6] |= uint64_t{1} << (i & 63);
      continue;
    }
    if (width == 0) continue;
    const uint64_t delta = static_cast<uint64_t>(v.int64_value()) -
                           static_cast<uint64_t>(b.base);
    const size_t bit = static_cast<size_t>(i) * width;
    b.words[bit >> 6] |= delta << (bit & 63);
    const unsigned used = 64 - static_cast<unsigned>(bit & 63);
    if (used < width) {
      b.words[(bit >> 6) + 1] |= delta >> used;
    }
  }
  return EncodedColumn{std::move(b)};
}

}  // namespace

EncodedSegmentPtr EncodeSegment(const RowStore& store, uint64_t base_row,
                                uint32_t num_rows, size_t num_columns) {
  auto seg = std::make_shared<EncodedSegment>();
  seg->base_row = base_row;
  seg->num_rows = num_rows;
  seg->columns.reserve(num_columns);
  seg->zones.reserve(num_columns);
  for (size_t c = 0; c < num_columns; ++c) {
    const ColumnProfile prof = ProfileColumn(store, base_row, num_rows, c);

    ZoneMap zone;
    zone.null_count = prof.null_count;
    zone.prunable = prof.non_null > 0 && !prof.mixed_tags && !prof.has_nan &&
                    prof.min != nullptr;
    if (zone.prunable) {
      zone.min = *prof.min;
      zone.max = *prof.max;
    }
    seg->zones.push_back(std::move(zone));

    const bool dict_eligible = prof.all_string && prof.non_null > 0;
    // Distinct string count for the dictionary decision (capped probe).
    size_t ndv = 0;
    if (dict_eligible && prof.runs > num_rows / 8) {
      std::unordered_set<std::string_view> distinct;
      for (uint32_t i = 0; i < num_rows && distinct.size() <= 256; ++i) {
        const Value& v = store.row(base_row + i)[c];
        if (!v.is_null()) distinct.insert(v.string_value());
      }
      ndv = distinct.size();
    }
    uint8_t width = 64;
    if (prof.int_family) {
      const uint64_t delta = static_cast<uint64_t>(prof.int_max) -
                             static_cast<uint64_t>(prof.int_min);
      width = delta == 0
                  ? 0
                  : static_cast<uint8_t>(64 - std::countl_zero(delta));
    }

    if (prof.runs <= num_rows / 8 || prof.non_null == 0) {
      seg->columns.push_back(
          EncodeRle(store, base_row, num_rows, c, prof.any_string));
    } else if (dict_eligible && ndv <= 256) {
      seg->columns.push_back(EncodeDict(store, base_row, num_rows, c));
    } else if (prof.int_family && !prof.mixed_tags && width <= 32) {
      seg->columns.push_back(
          EncodeBitPack(store, base_row, num_rows, c, prof, width));
    } else {
      seg->columns.push_back(
          EncodePlain(store, base_row, num_rows, c, prof.any_string));
    }
    seg->approx_bytes += ColumnApproxBytes(seg->columns.back());
  }
  return seg;
}

// --- serialization ---------------------------------------------------------

namespace {

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

template <typename T>
void PutVec(std::string* out, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  PutU32(out, static_cast<uint32_t>(v.size()));
  if (!v.empty()) {
    out->append(reinterpret_cast<const char*>(v.data()),
                v.size() * sizeof(T));
  }
}

void PutStrVec(std::string* out, const std::vector<std::string>& v) {
  PutU32(out, static_cast<uint32_t>(v.size()));
  for (const std::string& s : v) PutString(out, s);
}

// Bounds-checked reader over the sidecar image.
struct Cursor {
  std::string_view bytes;
  size_t pos = 0;

  Status Need(size_t n) const {
    if (bytes.size() - pos < n) {
      return Status::Internal("columnar sidecar truncated");
    }
    return Status::OK();
  }
  Result<uint32_t> U32() {
    RFID_RETURN_IF_ERROR(Need(4));
    uint32_t v;
    std::memcpy(&v, bytes.data() + pos, 4);
    pos += 4;
    return v;
  }
  Result<uint64_t> U64() {
    RFID_RETURN_IF_ERROR(Need(8));
    uint64_t v;
    std::memcpy(&v, bytes.data() + pos, 8);
    pos += 8;
    return v;
  }
  Result<std::string> Str() {
    RFID_ASSIGN_OR_RETURN(uint32_t n, U32());
    RFID_RETURN_IF_ERROR(Need(n));
    std::string s(bytes.substr(pos, n));
    pos += n;
    return s;
  }
  template <typename T>
  Status Vec(std::vector<T>* out, uint32_t max_elems) {
    RFID_ASSIGN_OR_RETURN(uint32_t n, U32());
    if (n > max_elems) return Status::Internal("columnar sidecar corrupt");
    RFID_RETURN_IF_ERROR(Need(static_cast<size_t>(n) * sizeof(T)));
    out->resize(n);
    if (n > 0) {
      std::memcpy(out->data(), bytes.data() + pos,
                  static_cast<size_t>(n) * sizeof(T));
    }
    pos += static_cast<size_t>(n) * sizeof(T);
    return Status::OK();
  }
  Status StrVec(std::vector<std::string>* out, uint32_t max_elems) {
    RFID_ASSIGN_OR_RETURN(uint32_t n, U32());
    if (n > max_elems) return Status::Internal("columnar sidecar corrupt");
    out->resize(n);
    for (uint32_t i = 0; i < n; ++i) {
      RFID_ASSIGN_OR_RETURN((*out)[i], Str());
    }
    return Status::OK();
  }
};

void PutValue(std::string* out, const Value& v) {
  out->push_back(static_cast<char>(TagOf(v)));
  if (v.type() == DataType::kString) {
    PutString(out, v.string_value());
  } else {
    PutU64(out, static_cast<uint64_t>(PayloadOf(v)));
  }
}

Result<Value> GetValue(Cursor* c) {
  RFID_RETURN_IF_ERROR(c->Need(1));
  const uint8_t tag = static_cast<uint8_t>(c->bytes[c->pos++]);
  if (tag > static_cast<uint8_t>(DataType::kInterval)) {
    return Status::Internal("columnar sidecar corrupt");
  }
  if (static_cast<DataType>(tag) == DataType::kString) {
    RFID_ASSIGN_OR_RETURN(std::string s, c->Str());
    return Value::String(std::move(s));
  }
  RFID_ASSIGN_OR_RETURN(uint64_t raw, c->U64());
  return MakeValue(tag, static_cast<int64_t>(raw), nullptr);
}

constexpr uint32_t kMaxSidecarElems = 1u << 24;

}  // namespace

void AppendSegmentBytes(const EncodedSegment& seg, std::string* out) {
  PutU64(out, seg.base_row);
  PutU32(out, seg.num_rows);
  PutU32(out, static_cast<uint32_t>(seg.columns.size()));
  for (size_t i = 0; i < seg.columns.size(); ++i) {
    const EncodedColumn& col = seg.columns[i];
    out->push_back(static_cast<char>(col.encoding()));
    switch (col.encoding()) {
      case ColumnEncoding::kPlain: {
        const PlainColumn& p = *col.plain();
        PutVec(out, p.tags);
        PutVec(out, p.data);
        PutStrVec(out, p.strs);
        break;
      }
      case ColumnEncoding::kRle: {
        const RleColumn& r = *col.rle();
        PutVec(out, r.tags);
        PutVec(out, r.data);
        PutStrVec(out, r.strs);
        PutVec(out, r.ends);
        break;
      }
      case ColumnEncoding::kDict: {
        const DictColumn& d = *col.dict();
        PutStrVec(out, d.dict);
        PutVec(out, d.codes);
        break;
      }
      case ColumnEncoding::kBitPack: {
        const BitPackColumn& b = *col.bitpack();
        out->push_back(static_cast<char>(b.tag));
        out->push_back(static_cast<char>(b.width));
        PutU64(out, static_cast<uint64_t>(b.base));
        PutVec(out, b.words);
        PutVec(out, b.nulls);
        break;
      }
    }
    const ZoneMap& z = seg.zones[i];
    out->push_back(z.prunable ? 1 : 0);
    PutU32(out, z.null_count);
    if (z.prunable) {
      PutValue(out, z.min);
      PutValue(out, z.max);
    }
  }
}

Result<EncodedSegmentPtr> ParseSegmentBytes(std::string_view bytes,
                                            size_t* offset) {
  Cursor c{bytes, *offset};
  auto seg = std::make_shared<EncodedSegment>();
  RFID_ASSIGN_OR_RETURN(seg->base_row, c.U64());
  RFID_ASSIGN_OR_RETURN(seg->num_rows, c.U32());
  RFID_ASSIGN_OR_RETURN(uint32_t ncols, c.U32());
  if (seg->num_rows > RowStore::kSegmentRows || ncols > 4096) {
    return Status::Internal("columnar sidecar corrupt");
  }
  const uint32_t n = seg->num_rows;
  for (uint32_t ci = 0; ci < ncols; ++ci) {
    RFID_RETURN_IF_ERROR(c.Need(1));
    const uint8_t enc = static_cast<uint8_t>(c.bytes[c.pos++]);
    EncodedColumn col;
    switch (static_cast<ColumnEncoding>(enc)) {
      case ColumnEncoding::kPlain: {
        PlainColumn p;
        RFID_RETURN_IF_ERROR(c.Vec(&p.tags, n));
        RFID_RETURN_IF_ERROR(c.Vec(&p.data, n));
        RFID_RETURN_IF_ERROR(c.StrVec(&p.strs, n));
        if (p.tags.size() != n || p.data.size() != n ||
            (!p.strs.empty() && p.strs.size() != n)) {
          return Status::Internal("columnar sidecar corrupt");
        }
        for (uint8_t t : p.tags) {
          if (t > static_cast<uint8_t>(DataType::kInterval)) {
            return Status::Internal("columnar sidecar corrupt");
          }
          if (static_cast<DataType>(t) == DataType::kString &&
              p.strs.empty()) {
            return Status::Internal("columnar sidecar corrupt");
          }
        }
        col.rep = std::move(p);
        break;
      }
      case ColumnEncoding::kRle: {
        RleColumn r;
        RFID_RETURN_IF_ERROR(c.Vec(&r.tags, n));
        RFID_RETURN_IF_ERROR(c.Vec(&r.data, n));
        RFID_RETURN_IF_ERROR(c.StrVec(&r.strs, n));
        RFID_RETURN_IF_ERROR(c.Vec(&r.ends, n));
        const size_t runs = r.tags.size();
        if (runs == 0 || r.data.size() != runs || r.ends.size() != runs ||
            (!r.strs.empty() && r.strs.size() != runs) ||
            r.ends.back() != n) {
          return Status::Internal("columnar sidecar corrupt");
        }
        uint32_t prev = 0;
        for (size_t i = 0; i < runs; ++i) {
          if (r.ends[i] <= prev) {
            return Status::Internal("columnar sidecar corrupt");
          }
          prev = r.ends[i];
          if (r.tags[i] > static_cast<uint8_t>(DataType::kInterval) ||
              (static_cast<DataType>(r.tags[i]) == DataType::kString &&
               r.strs.empty())) {
            return Status::Internal("columnar sidecar corrupt");
          }
        }
        col.rep = std::move(r);
        break;
      }
      case ColumnEncoding::kDict: {
        DictColumn d;
        RFID_RETURN_IF_ERROR(c.StrVec(&d.dict, n));
        RFID_RETURN_IF_ERROR(c.Vec(&d.codes, n));
        if (d.codes.size() != n) {
          return Status::Internal("columnar sidecar corrupt");
        }
        for (uint32_t code : d.codes) {
          if (code != DictColumn::kNullCode && code >= d.dict.size()) {
            return Status::Internal("columnar sidecar corrupt");
          }
        }
        col.rep = std::move(d);
        break;
      }
      case ColumnEncoding::kBitPack: {
        BitPackColumn b;
        RFID_RETURN_IF_ERROR(c.Need(2));
        b.tag = static_cast<uint8_t>(c.bytes[c.pos++]);
        b.width = static_cast<uint8_t>(c.bytes[c.pos++]);
        RFID_ASSIGN_OR_RETURN(uint64_t base, c.U64());
        b.base = static_cast<int64_t>(base);
        RFID_RETURN_IF_ERROR(c.Vec(&b.words, kMaxSidecarElems));
        RFID_RETURN_IF_ERROR(c.Vec(&b.nulls, kMaxSidecarElems));
        if (!IsIntFamily(b.tag) || b.width > 32 ||
            b.words.size() <
                (static_cast<size_t>(n) * b.width + 63) / 64 ||
            (!b.nulls.empty() && b.nulls.size() < (n + 63) / 64)) {
          return Status::Internal("columnar sidecar corrupt");
        }
        col.rep = std::move(b);
        break;
      }
      default:
        return Status::Internal("columnar sidecar corrupt");
    }
    ZoneMap z;
    RFID_RETURN_IF_ERROR(c.Need(1));
    const uint8_t prunable = static_cast<uint8_t>(c.bytes[c.pos++]);
    RFID_ASSIGN_OR_RETURN(z.null_count, c.U32());
    z.prunable = prunable != 0;
    if (z.prunable) {
      RFID_ASSIGN_OR_RETURN(z.min, GetValue(&c));
      RFID_ASSIGN_OR_RETURN(z.max, GetValue(&c));
      if (z.min.is_null() || z.max.is_null()) {
        return Status::Internal("columnar sidecar corrupt");
      }
    }
    seg->approx_bytes += ColumnApproxBytes(col);
    seg->columns.push_back(std::move(col));
    seg->zones.push_back(std::move(z));
  }
  *offset = c.pos;
  return EncodedSegmentPtr(std::move(seg));
}

// --- directory -------------------------------------------------------------

EncodedSegmentPtr ColumnarDirectory::Get(size_t segment) const {
  MutexLock lock(&mu_);
  if (segment >= segments_.size()) return nullptr;
  return segments_[segment];
}

void ColumnarDirectory::Install(size_t segment, EncodedSegmentPtr seg) {
  MutexLock lock(&mu_);
  if (segment >= segments_.size()) segments_.resize(segment + 1);
  segments_[segment] = std::move(seg);
}

void ColumnarDirectory::InvalidateAll() {
  uint64_t dropped = 0;
  {
    MutexLock lock(&mu_);
    for (EncodedSegmentPtr& s : segments_) {
      if (s != nullptr) ++dropped;
    }
    segments_.clear();
  }
  if (dropped > 0) AddColumnarInvalidated(dropped);
}

size_t ColumnarDirectory::encoded_segments() const {
  MutexLock lock(&mu_);
  size_t n = 0;
  for (const EncodedSegmentPtr& s : segments_) {
    if (s != nullptr) ++n;
  }
  return n;
}

uint64_t ColumnarDirectory::encoded_bytes() const {
  MutexLock lock(&mu_);
  uint64_t bytes = 0;
  for (const EncodedSegmentPtr& s : segments_) {
    if (s != nullptr) bytes += s->approx_bytes;
  }
  return bytes;
}

std::vector<EncodedSegmentPtr> ColumnarDirectory::SnapshotAll() const {
  MutexLock lock(&mu_);
  return segments_;
}

// --- counters --------------------------------------------------------------

ColumnarCounters GlobalColumnarCounters() {
  ColumnarCounters c;
  c.segments_encoded = g_encoded.load(std::memory_order_relaxed);
  c.segments_invalidated = g_invalidated.load(std::memory_order_relaxed);
  c.segments_scanned = g_scanned.load(std::memory_order_relaxed);
  c.segments_skipped = g_skipped.load(std::memory_order_relaxed);
  return c;
}

void AddColumnarEncoded(uint64_t n) {
  g_encoded.fetch_add(n, std::memory_order_relaxed);
}
void AddColumnarInvalidated(uint64_t n) {
  g_invalidated.fetch_add(n, std::memory_order_relaxed);
}
void AddColumnarScanned(uint64_t n) {
  g_scanned.fetch_add(n, std::memory_order_relaxed);
}
void AddColumnarSkipped(uint64_t n) {
  g_skipped.fetch_add(n, std::memory_order_relaxed);
}

// --- checkpoint sidecar ----------------------------------------------------

namespace {
constexpr char kSidecarMagic[8] = {'R', 'F', 'C', 'O', 'L', 'S', 'G', '1'};
}  // namespace

Status SaveColumnarSidecar(const std::string& path, const Database& db) {
  std::string image(kSidecarMagic, sizeof(kSidecarMagic));
  std::vector<std::string> names = db.TableNames();
  // Count tables with at least one encoded segment.
  std::string body;
  uint32_t tables_with_segments = 0;
  for (const std::string& name : names) {
    const Table* t = db.GetTable(name);
    if (t == nullptr) continue;
    std::vector<EncodedSegmentPtr> segs = t->columnar().SnapshotAll();
    uint32_t live = 0;
    for (const EncodedSegmentPtr& s : segs) {
      if (s != nullptr) ++live;
    }
    if (live == 0) continue;
    ++tables_with_segments;
    PutString(&body, t->name());
    PutU32(&body, live);
    for (const EncodedSegmentPtr& s : segs) {
      if (s != nullptr) AppendSegmentBytes(*s, &body);
    }
  }
  PutU32(&image, tables_with_segments);
  image += body;
  const uint32_t crc = Crc32(image.data(), image.size());
  PutU32(&image, crc);
  return WriteFileAtomic(path, image);
}

Status LoadColumnarSidecar(const std::string& path, Database* db) {
  Result<std::string> image = ReadFileToString(path);
  if (!image.ok()) return Status::OK();  // pre-columnar checkpoint
  const std::string& bytes = *image;
  if (bytes.size() < sizeof(kSidecarMagic) + 8 ||
      std::memcmp(bytes.data(), kSidecarMagic, sizeof(kSidecarMagic)) != 0) {
    return Status::OK();  // unrecognized: degrade to row-store scans
  }
  const uint32_t stored_crc = [&] {
    uint32_t v;
    std::memcpy(&v, bytes.data() + bytes.size() - 4, 4);
    return v;
  }();
  if (Crc32(bytes.data(), bytes.size() - 4) != stored_crc) {
    return Status::OK();  // torn write: segments re-encode lazily instead
  }
  Cursor c{std::string_view(bytes.data(), bytes.size() - 4),
           sizeof(kSidecarMagic)};
  auto parse = [&]() -> Status {
    RFID_ASSIGN_OR_RETURN(uint32_t ntables, c.U32());
    for (uint32_t ti = 0; ti < ntables; ++ti) {
      RFID_ASSIGN_OR_RETURN(std::string name, c.Str());
      RFID_ASSIGN_OR_RETURN(uint32_t nsegs, c.U32());
      Table* t = db->GetTable(name);
      for (uint32_t si = 0; si < nsegs; ++si) {
        RFID_ASSIGN_OR_RETURN(EncodedSegmentPtr seg,
                              ParseSegmentBytes(c.bytes, &c.pos));
        if (t == nullptr) continue;  // dropped table: skip its segments
        RFID_RETURN_IF_ERROR(t->InstallEncodedSegment(seg));
      }
    }
    return Status::OK();
  };
  Status st = parse();
  // A corrupt tail degrades: whatever installed so far is individually
  // validated, the rest re-encodes from rows.
  (void)st;
  return Status::OK();
}

}  // namespace rfid
