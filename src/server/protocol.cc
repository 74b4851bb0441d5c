#include "server/protocol.h"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/string_util.h"

namespace rfid::server {

const char* FrameTypeName(FrameType t) {
  switch (t) {
    case FrameType::kHello: return "HELLO";
    case FrameType::kQuery: return "QUERY";
    case FrameType::kPrepare: return "PREPARE";
    case FrameType::kExecute: return "EXECUTE";
    case FrameType::kCloseStmt: return "CLOSE_STMT";
    case FrameType::kSet: return "SET";
    case FrameType::kCommand: return "COMMAND";
    case FrameType::kQuit: return "QUIT";
    case FrameType::kWelcome: return "WELCOME";
    case FrameType::kRows: return "ROWS";
    case FrameType::kError: return "ERROR";
    case FrameType::kOk: return "OK";
    case FrameType::kPrepared: return "PREPARED";
  }
  return "?";
}

const char* CacheOutcomeName(CacheOutcome o) {
  switch (o) {
    case CacheOutcome::kBypass: return "bypass";
    case CacheOutcome::kHit: return "hit";
    case CacheOutcome::kMiss: return "miss";
    case CacheOutcome::kInvalidated: return "invalidated";
  }
  return "?";
}

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

void PutValue(std::string* out, const Value& v) {
  PutU8(out, static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case DataType::kNull:
      break;
    case DataType::kBool:
      PutU8(out, v.bool_value() ? 1 : 0);
      break;
    case DataType::kInt64:
      PutU64(out, static_cast<uint64_t>(v.int64_value()));
      break;
    case DataType::kTimestamp:
      PutU64(out, static_cast<uint64_t>(v.timestamp_value()));
      break;
    case DataType::kInterval:
      PutU64(out, static_cast<uint64_t>(v.interval_value()));
      break;
    case DataType::kDouble: {
      // IEEE bit pattern, so remote doubles are the embedded doubles.
      uint64_t bits = 0;
      double d = v.double_value();
      std::memcpy(&bits, &d, sizeof(bits));
      PutU64(out, bits);
      break;
    }
    case DataType::kString:
      PutString(out, v.string_value());
      break;
  }
}

Status WireReader::Need(size_t n) {
  if (pos_ + n > data_.size()) {
    pos_ = data_.size() + 1;  // poison: all further reads fail too
    return Status::Internal(
        StrFormat("malformed frame: truncated payload (need %zu more bytes)", n));
  }
  return Status::OK();
}

Status WireReader::GetU8(uint8_t* v) {
  RFID_RETURN_IF_ERROR(Need(1));
  *v = static_cast<uint8_t>(data_[pos_++]);
  return Status::OK();
}

Status WireReader::GetU32(uint32_t* v) {
  RFID_RETURN_IF_ERROR(Need(4));
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
  }
  return Status::OK();
}

Status WireReader::GetU64(uint64_t* v) {
  RFID_RETURN_IF_ERROR(Need(8));
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
  }
  return Status::OK();
}

Status WireReader::GetString(std::string* s) {
  uint32_t len = 0;
  RFID_RETURN_IF_ERROR(GetU32(&len));
  if (len > kMaxFrameBytes) {
    return Status::Internal("malformed frame: oversized string");
  }
  RFID_RETURN_IF_ERROR(Need(len));
  s->assign(data_.substr(pos_, len));
  pos_ += len;
  return Status::OK();
}

Status WireReader::GetValue(Value* v) {
  uint8_t tag = 0;
  RFID_RETURN_IF_ERROR(GetU8(&tag));
  switch (static_cast<DataType>(tag)) {
    case DataType::kNull:
      *v = Value::Null();
      return Status::OK();
    case DataType::kBool: {
      uint8_t b = 0;
      RFID_RETURN_IF_ERROR(GetU8(&b));
      *v = Value::Bool(b != 0);
      return Status::OK();
    }
    case DataType::kInt64: {
      uint64_t raw = 0;
      RFID_RETURN_IF_ERROR(GetU64(&raw));
      *v = Value::Int64(static_cast<int64_t>(raw));
      return Status::OK();
    }
    case DataType::kTimestamp: {
      uint64_t raw = 0;
      RFID_RETURN_IF_ERROR(GetU64(&raw));
      *v = Value::Timestamp(static_cast<int64_t>(raw));
      return Status::OK();
    }
    case DataType::kInterval: {
      uint64_t raw = 0;
      RFID_RETURN_IF_ERROR(GetU64(&raw));
      *v = Value::Interval(static_cast<int64_t>(raw));
      return Status::OK();
    }
    case DataType::kDouble: {
      uint64_t bits = 0;
      RFID_RETURN_IF_ERROR(GetU64(&bits));
      double d = 0;
      std::memcpy(&d, &bits, sizeof(d));
      *v = Value::Double(d);
      return Status::OK();
    }
    case DataType::kString: {
      std::string s;
      RFID_RETURN_IF_ERROR(GetString(&s));
      *v = Value::String(std::move(s));
      return Status::OK();
    }
  }
  return Status::Internal(
      StrFormat("malformed frame: unknown value type tag %u", tag));
}

Status WireReader::ExpectDone() const {
  if (pos_ != data_.size()) {
    return Status::Internal("malformed frame: trailing payload bytes");
  }
  return Status::OK();
}

std::string EncodeRowsPayload(const RowsPayload& rows) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(rows.fields.size()));
  for (const Field& f : rows.fields) {
    PutString(&out, f.qualifier);
    PutString(&out, f.name);
    PutU8(&out, static_cast<uint8_t>(f.type));
  }
  PutU32(&out, static_cast<uint32_t>(rows.rows.size()));
  for (const Row& row : rows.rows) {
    for (const Value& v : row) PutValue(&out, v);
  }
  PutU64(&out, rows.elapsed_micros);
  PutU8(&out, static_cast<uint8_t>(rows.cache));
  PutString(&out, rows.rewrite_note);
  PutString(&out, rows.warnings);
  PutString(&out, rows.explain);
  return out;
}

Status DecodeRowsPayload(std::string_view payload, RowsPayload* out) {
  WireReader r(payload);
  uint32_t ncols = 0;
  RFID_RETURN_IF_ERROR(r.GetU32(&ncols));
  out->fields.clear();
  out->fields.reserve(ncols);
  for (uint32_t c = 0; c < ncols; ++c) {
    Field f;
    RFID_RETURN_IF_ERROR(r.GetString(&f.qualifier));
    RFID_RETURN_IF_ERROR(r.GetString(&f.name));
    uint8_t type = 0;
    RFID_RETURN_IF_ERROR(r.GetU8(&type));
    f.type = static_cast<DataType>(type);
    out->fields.push_back(std::move(f));
  }
  uint32_t nrows = 0;
  RFID_RETURN_IF_ERROR(r.GetU32(&nrows));
  out->rows.clear();
  out->rows.reserve(nrows);
  for (uint32_t i = 0; i < nrows; ++i) {
    Row row(ncols);
    for (uint32_t c = 0; c < ncols; ++c) {
      RFID_RETURN_IF_ERROR(r.GetValue(&row[c]));
    }
    out->rows.push_back(std::move(row));
  }
  RFID_RETURN_IF_ERROR(r.GetU64(&out->elapsed_micros));
  uint8_t cache = 0;
  RFID_RETURN_IF_ERROR(r.GetU8(&cache));
  if (cache > static_cast<uint8_t>(CacheOutcome::kInvalidated)) {
    return Status::Internal("malformed frame: unknown cache outcome");
  }
  out->cache = static_cast<CacheOutcome>(cache);
  RFID_RETURN_IF_ERROR(r.GetString(&out->rewrite_note));
  RFID_RETURN_IF_ERROR(r.GetString(&out->warnings));
  RFID_RETURN_IF_ERROR(r.GetString(&out->explain));
  return r.ExpectDone();
}

std::string EncodeErrorPayload(const Status& error) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(error.code()));
  PutString(&out, error.message());
  return out;
}

Status DecodeErrorPayload(std::string_view payload) {
  WireReader r(payload);
  uint32_t code = 0;
  std::string message;
  RFID_RETURN_IF_ERROR(r.GetU32(&code));
  RFID_RETURN_IF_ERROR(r.GetString(&message));
  RFID_RETURN_IF_ERROR(r.ExpectDone());
  if (code == 0 || code > static_cast<uint32_t>(StatusCode::kDeadlineExceeded)) {
    return Status::Internal(StrFormat("server error with unknown code %u: %s",
                                      code, message.c_str()));
  }
  return Status(static_cast<StatusCode>(code), std::move(message));
}

namespace {

/// Reads exactly n bytes. `*clean_eof` is set when EOF arrives before the
/// first byte (an orderly peer hangup between frames).
Status ReadAll(int fd, char* data, size_t n, bool* clean_eof) {
  if (clean_eof != nullptr) *clean_eof = false;
  size_t done = 0;
  while (done < n) {
    ssize_t r = ::read(fd, data + done, n - done);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(StrFormat("socket read failed: %s",
                                        std::strerror(errno)));
    }
    if (r == 0) {
      if (done == 0 && clean_eof != nullptr) {
        *clean_eof = true;
        return Status::NotFound("connection closed");
      }
      return Status::Internal("connection closed mid-frame");
    }
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

}  // namespace

Status WriteFrame(int fd, FrameType type, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument(
        StrFormat("frame payload too large: %zu bytes", payload.size()));
  }
  std::string header;
  header.reserve(5);
  PutU32(&header, static_cast<uint32_t>(payload.size()));
  PutU8(&header, static_cast<uint8_t>(type));
  // Header and payload leave in one sendmsg: with two writes, Nagle holds
  // the payload back until the peer ACKs the header, and the peer delays
  // that ACK by ~40 ms. The payload is gathered in place, not copied.
  iovec iov[2] = {{header.data(), header.size()},
                  {const_cast<char*>(payload.data()), payload.size()}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  while (msg.msg_iovlen > 0) {
    // MSG_NOSIGNAL: a peer that hung up yields EPIPE, not a process-wide
    // SIGPIPE.
    ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(StrFormat("socket write failed: %s",
                                        std::strerror(errno)));
    }
    if (w == 0) return Status::Internal("socket write returned 0");
    // Partial write: drop the fully sent (or empty) entries, trim the
    // next one.
    auto sent = static_cast<size_t>(w);
    while (msg.msg_iovlen > 0 && sent >= msg.msg_iov->iov_len) {
      sent -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0) {
      msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + sent;
      msg.msg_iov->iov_len -= sent;
    }
  }
  return Status::OK();
}

Status ReadFrame(int fd, FrameType* type, std::string* payload) {
  char header[5];
  bool clean_eof = false;
  Status st = ReadAll(fd, header, sizeof(header), &clean_eof);
  if (!st.ok()) return st;
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(static_cast<uint8_t>(header[i])) << (8 * i);
  }
  if (len > kMaxFrameBytes) {
    return Status::Internal(StrFormat("frame payload too large: %u bytes", len));
  }
  *type = static_cast<FrameType>(static_cast<uint8_t>(header[4]));
  // Grow the buffer as bytes arrive rather than trusting the announced
  // length: memory follows what the peer actually sent (one chunk ahead),
  // so a peer that announces 64 MiB and then stalls or hangs up cannot
  // make the reader allocate it. The string's geometric growth keeps the
  // copying linear for honest large frames.
  constexpr size_t kReadChunkBytes = size_t{1} << 20;
  payload->clear();
  while (payload->size() < len) {
    const size_t have = payload->size();
    const size_t chunk = std::min<size_t>(len - have, kReadChunkBytes);
    payload->resize(have + chunk);
    RFID_RETURN_IF_ERROR(ReadAll(fd, payload->data() + have, chunk, nullptr));
  }
  return Status::OK();
}

}  // namespace rfid::server
