// Wire protocol for the SQL server front end: length-prefixed binary
// frames over a byte stream (TCP), shared by the server and the client
// library.
//
// Frame layout (all integers little-endian):
//   u32 payload_length | u8 frame_type | payload bytes
//
// Client -> server: HELLO, QUERY, PREPARE, EXECUTE, CLOSE_STMT, SET,
// COMMAND, QUIT. Server -> client: WELCOME, ROWS, ERROR, OK, PREPARED.
// Every client frame gets exactly one response frame, so a connection is
// a strict request/response alternation (no pipelining).
//
// Values travel typed: a DataType tag followed by the payload — int64 /
// timestamp / interval as 8-byte two's complement, doubles as their IEEE
// bit pattern (so results round-trip bit-identical to embedded
// execution), strings length-prefixed. ERROR frames carry the structured
// StatusCode plus the engine's exact message — parser line/column
// diagnostics and verifier phase/operator/invariant text included — so a
// remote client reconstructs the same Status an embedded caller would
// see.
//
// Decoding is defensive end to end: a malformed or truncated frame turns
// into a Status error (never a crash or an over-read), and payloads are
// capped at kMaxFrameBytes.
#ifndef RFID_SERVER_PROTOCOL_H_
#define RFID_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "expr/eval.h"

namespace rfid::server {

inline constexpr uint32_t kProtocolVersion = 1;
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;  // 64 MiB

enum class FrameType : uint8_t {
  // client -> server
  kHello = 0x01,      // u32 protocol_version
  kQuery = 0x02,      // str sql
  kPrepare = 0x03,    // str sql
  kExecute = 0x04,    // u64 statement_id
  kCloseStmt = 0x05,  // u64 statement_id
  kSet = 0x06,        // str key, str value
  kCommand = 0x07,    // str command line (".gen 20 10", ".rule DEFINE ...")
  kQuit = 0x08,       // empty
  // server -> client
  kWelcome = 0x81,    // u32 protocol_version, u64 session_id
  kRows = 0x82,       // result set, see RowsPayload
  kError = 0x83,      // u32 status_code, str message
  kOk = 0x84,         // str text
  kPrepared = 0x85,   // u64 statement_id
};

const char* FrameTypeName(FrameType t);

/// How the plan cache treated the query that produced a result set.
enum class CacheOutcome : uint8_t {
  kBypass = 0,       // rewriting off / no rules / cache disabled
  kHit = 1,          // rewrite skipped, cached statement reused
  kMiss = 2,         // rewritten fresh and cached
  kInvalidated = 3,  // entry existed but a version bump forced a re-rewrite
};

const char* CacheOutcomeName(CacheOutcome o);

/// Decoded kRows payload: the output descriptor, all rows, and the
/// execution summary the shell prints in embedded mode.
struct RowsPayload {
  std::vector<Field> fields;
  std::vector<Row> rows;
  uint64_t elapsed_micros = 0;
  CacheOutcome cache = CacheOutcome::kBypass;
  std::string rewrite_note;  // "[rewritten: ...]" line(s); may be empty
  std::string warnings;      // lint findings, one per line; may be empty
  std::string explain;       // executed plan; empty unless SET explain on
};

// --- payload encoding (append to / read from a byte buffer) ---

void PutU8(std::string* out, uint8_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutString(std::string* out, std::string_view s);
void PutValue(std::string* out, const Value& v);

/// Cursor over a received payload. Get* methods fail (and poison the
/// cursor) on truncated or malformed input.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  Status GetU8(uint8_t* v);
  Status GetU32(uint32_t* v);
  Status GetU64(uint64_t* v);
  Status GetString(std::string* s);
  Status GetValue(Value* v);

  /// Fails unless every payload byte has been consumed.
  Status ExpectDone() const;

 private:
  Status Need(size_t n);

  std::string_view data_;
  size_t pos_ = 0;
};

std::string EncodeRowsPayload(const RowsPayload& rows);
Status DecodeRowsPayload(std::string_view payload, RowsPayload* out);

std::string EncodeErrorPayload(const Status& error);
/// Reconstructs the Status an ERROR frame carries (same code, same
/// message an embedded caller would have seen).
Status DecodeErrorPayload(std::string_view payload);

// --- framed socket I/O ---

/// Writes one frame as a single gathered write (header and payload in
/// one sendmsg, so Nagle never holds a payload back behind its own
/// header); handles partial writes and EINTR. Returns an error when the
/// peer is gone.
Status WriteFrame(int fd, FrameType type, std::string_view payload);

/// Reads one frame; handles partial reads and EINTR. A clean EOF before
/// any header byte yields kNotFound("connection closed") so callers can
/// tell an orderly hangup from a protocol error. The payload buffer grows
/// in chunks of at most 1 MiB as bytes arrive, never to the announced
/// length up front.
Status ReadFrame(int fd, FrameType* type, std::string* payload);

}  // namespace rfid::server

#endif  // RFID_SERVER_PROTOCOL_H_
