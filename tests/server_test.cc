// SQL server front end: wire-protocol round-trips, remote execution
// bit-identical to embedded, session-local rule catalogs, the
// prepared-statement plan cache (hit / miss / invalidation), structured
// admission-control rejections, protocol-level error fidelity,
// framed socket I/O (partial writes, hostile length prefixes, no
// delayed-ACK stalls), and graceful shutdown.
#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <thread>

#include "plan/planner.h"
#include "rewrite/rewriter.h"
#include "rfidgen/anomaly.h"
#include "rfidgen/workload.h"
#include "server/client.h"
#include "server/server.h"
#include "sql/parser.h"

namespace rfid {
namespace {

using server::CacheOutcome;
using server::Client;
using server::RowsPayload;
using server::Server;
using server::ServerOptions;

// Bit-exact canonical form: doubles render as their IEEE bit pattern, so
// two result sets compare equal only when every value is bit-identical.
std::string BitExact(const Value& v) {
  if (v.type() == DataType::kDouble) {
    uint64_t bits = 0;
    double d = v.double_value();
    std::memcpy(&bits, &d, sizeof(bits));
    return "d:" + std::to_string(bits);
  }
  return std::string(DataTypeName(v.type())) + ":" + v.ToString();
}

std::vector<std::string> Canonical(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const Row& r : rows) {
    std::string s;
    for (const Value& v : r) s += BitExact(v) + "|";
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// --- protocol unit tests (no sockets) ---

TEST(ProtocolTest, RowsPayloadRoundTripsBitExact) {
  RowsPayload in;
  in.fields = {{"t", "epc", DataType::kString}, {"", "avg", DataType::kDouble}};
  in.rows.push_back({Value::String("urn:epc:1"), Value::Double(0.1 + 0.2)});
  in.rows.push_back({Value::Null(), Value::Double(-0.0)});
  in.rows.push_back(
      {Value::Timestamp(123456789), Value::Double(std::nan(""))});
  in.rows.push_back({Value::Interval(-5), Value::Int64(-1)});
  in.rows.push_back({Value::Bool(true), Value::Bool(false)});
  in.elapsed_micros = 4242;
  in.cache = CacheOutcome::kInvalidated;
  in.rewrite_note = "[rewritten: expanded strategy, est. cost 12]";
  in.warnings = "lint: duplicate names";
  in.explain = "Scan(caseR)";

  std::string wire = server::EncodeRowsPayload(in);
  RowsPayload out;
  ASSERT_TRUE(server::DecodeRowsPayload(wire, &out).ok());
  ASSERT_EQ(out.fields.size(), 2u);
  EXPECT_EQ(out.fields[0].qualifier, "t");
  EXPECT_EQ(out.fields[0].name, "epc");
  EXPECT_EQ(out.fields[1].type, DataType::kDouble);
  EXPECT_EQ(Canonical(out.rows), Canonical(in.rows));
  EXPECT_EQ(out.elapsed_micros, 4242u);
  EXPECT_EQ(out.cache, CacheOutcome::kInvalidated);
  EXPECT_EQ(out.rewrite_note, in.rewrite_note);
  EXPECT_EQ(out.warnings, in.warnings);
  EXPECT_EQ(out.explain, in.explain);
}

TEST(ProtocolTest, ErrorPayloadPreservesCodeAndMessage) {
  Status in = Status::ParseError(
      "expected expression but got ';' (line 3, column 14)");
  Status out = server::DecodeErrorPayload(server::EncodeErrorPayload(in));
  EXPECT_EQ(out.code(), in.code());
  EXPECT_EQ(out.message(), in.message());
}

TEST(ProtocolTest, TruncatedPayloadFailsCleanly) {
  RowsPayload in;
  in.fields = {{"", "x", DataType::kInt64}};
  in.rows.push_back({Value::Int64(7)});
  std::string wire = server::EncodeRowsPayload(in);
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    RowsPayload out;
    Status st = server::DecodeRowsPayload(wire.substr(0, cut), &out);
    EXPECT_FALSE(st.ok()) << "cut at " << cut;
  }
}

// --- framed socket I/O over a socketpair ---

std::atomic<int> g_write_interrupts{0};
void CountWriteInterrupt(int /*signo*/) {
  g_write_interrupts.fetch_add(1, std::memory_order_relaxed);
}

// Writes one frame on this thread while a reader thread reads it. A
// blocking Linux socket completes even an 8 MiB sendmsg in one call, so
// a third thread keeps signalling the writer (handler installed without
// SA_RESTART): an interrupted sendmsg that already moved bytes returns
// the partial count, one that had not returns EINTR. Both retry paths of
// WriteFrame run.
void ExpectFrameRoundTrip(size_t n) {
  SCOPED_TRACE(n);
  struct sigaction sa {};
  sa.sa_handler = CountWriteInterrupt;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, nullptr), 0);

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::string payload(n, '\0');
  for (size_t i = 0; i < n; ++i) payload[i] = static_cast<char>(i * 131 + 7);

  server::FrameType got_type = server::FrameType::kHello;
  std::string got;
  Status read_status;
  std::thread reader(
      [&] { read_status = server::ReadFrame(sv[1], &got_type, &got); });
  std::atomic<bool> written{false};
  const pthread_t writer = ::pthread_self();
  g_write_interrupts.store(0);
  std::thread interrupter([&] {
    while (!written.load(std::memory_order_acquire)) {
      ::pthread_kill(writer, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  Status write_status = server::WriteFrame(sv[0], server::FrameType::kRows,
                                           payload);
  written.store(true, std::memory_order_release);
  interrupter.join();
  reader.join();
  ::close(sv[0]);
  ::close(sv[1]);
  // The counting handler stays installed: a signal still in flight must
  // not meet SIGUSR1's default (terminating) action.

  ASSERT_TRUE(write_status.ok()) << write_status.ToString();
  ASSERT_TRUE(read_status.ok()) << read_status.ToString();
  EXPECT_EQ(got_type, server::FrameType::kRows);
  EXPECT_EQ(got.size(), n);
  EXPECT_TRUE(got == payload) << "payload bytes differ";
}

TEST(ProtocolTest, FramesRoundTripOverSocketpair) {
  ExpectFrameRoundTrip(0);
  ExpectFrameRoundTrip(1);
  ExpectFrameRoundTrip(size_t{8} << 20);  // far beyond the socket buffer
  EXPECT_GT(g_write_interrupts.load(), 0) << "the 8 MiB write was never "
                                             "interrupted";
}

TEST(ProtocolTest, ReadFrameAllocatesOnlyWhatArrives) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  // Announce the largest legal frame, send 10 bytes of it, hang up.
  std::string wire;
  server::PutU32(&wire, server::kMaxFrameBytes);
  server::PutU8(&wire, static_cast<uint8_t>(server::FrameType::kQuery));
  wire.append(10, 'x');
  ASSERT_EQ(::write(sv[0], wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));
  ::close(sv[0]);

  server::FrameType type;
  std::string payload;
  Status st = server::ReadFrame(sv[1], &type, &payload);
  ::close(sv[1]);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
  EXPECT_NE(st.message().find("mid-frame"), std::string::npos)
      << st.ToString();
  // One read chunk at most, not the announced 64 MiB.
  EXPECT_LE(payload.capacity(), size_t{2} << 20);
}

// --- live server fixture ---

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}) {
    auto srv = Server::Start(std::move(options));
    ASSERT_TRUE(srv.ok()) << srv.status().ToString();
    server_ = std::move(*srv);
  }

  std::unique_ptr<Client> MustConnect() {
    auto client = Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(*client) : nullptr;
  }

  // Mirrors the server's .gen command on an embedded database.
  static void GenEmbedded(Database* db, int64_t pallets, double dirty_pct) {
    rfidgen::GeneratorOptions gen;
    gen.num_pallets = pallets;
    auto g = rfidgen::Generate(gen, db);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    rfidgen::AnomalyOptions anomalies;
    anomalies.dirty_fraction = dirty_pct / 100.0;
    auto a = rfidgen::InjectAnomalies(anomalies, db);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
  }

  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, HandshakeGivesDistinctSessions) {
  StartServer();
  auto a = MustConnect();
  auto b = MustConnect();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a->session_id(), b->session_id());
  EXPECT_EQ(server_->active_sessions(), 2);
  EXPECT_TRUE(a->Quit().ok());
  EXPECT_TRUE(b->Quit().ok());
}

// Two writes per frame on a socket without TCP_NODELAY stalled every
// round trip ~40 ms on the peer's delayed ACK. Linux ACKs promptly for
// the first few exchanges of a connection, so 50 round trips get past
// that window; stalled, they take ~2 s.
TEST_F(ServerTest, RoundTripsDoNotStallOnDelayedAcks) {
  StartServer();
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 50; ++i) {
    auto res = client->Command(".rules");
    ASSERT_TRUE(res.ok()) << res.status().ToString();
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(1))
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count()
      << " ms for 50 round trips";
  EXPECT_TRUE(client->Quit().ok());
}

TEST_F(ServerTest, SessionLimitRefusesWithResourceExhausted) {
  ServerOptions options;
  options.max_sessions = 1;
  StartServer(options);
  auto a = MustConnect();
  ASSERT_NE(a, nullptr);
  auto b = Client::Connect("127.0.0.1", server_->port());
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(b.status().message().find("session limit"), std::string::npos);
}

TEST_F(ServerTest, RemoteResultsBitIdenticalToEmbeddedAcrossStrategies) {
  StartServer();
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  auto gen = client->Command(".gen 6 15");
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();

  // The embedded twin: same generator, same anomalies, same rules.
  Database db;
  GenEmbedded(&db, 6, 15);
  CleansingRuleEngine engine(&db);
  for (const std::string& def : workload::StandardRuleDefinitions(2)) {
    ASSERT_TRUE(engine.DefineRule(def).ok());
    auto remote = client->Command(".rule " + def);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  }

  const int64_t t1 = workload::T1ForSelectivity(db, 0.6);
  const std::vector<std::string> queries = {
      workload::Q1(t1),
      "SELECT epc, biz_loc FROM caseR WHERE rtime <= TIMESTAMP " +
          std::to_string(t1),
      "SELECT count(*) FROM caseR",
  };
  const std::vector<std::pair<std::string, RewriteStrategy>> strategies = {
      {"naive", RewriteStrategy::kNaive},
      {"expanded", RewriteStrategy::kExpanded},
      {"joinback", RewriteStrategy::kJoinBack},
  };
  for (const auto& [name, strategy] : strategies) {
    ASSERT_TRUE(client->Set("strategy", name).ok());
    for (const std::string& sql : queries) {
      QueryRewriter rewriter(&db, &engine);
      RewriteOptions opts;
      opts.strategy = strategy;
      auto info = rewriter.Rewrite(sql, opts);
      if (!info.ok()) {
        // A strategy with no feasible rewrite (e.g. expanded for a pure
        // aggregate) must fail identically over the wire.
        auto remote = client->Query(sql);
        ASSERT_FALSE(remote.ok()) << "strategy " << name << ", query: " << sql;
        EXPECT_EQ(remote.status().code(), info.status().code());
        EXPECT_EQ(remote.status().message(), info.status().message());
        continue;
      }
      auto embedded = ExecuteSql(db, info->sql);
      ASSERT_TRUE(embedded.ok()) << embedded.status().ToString();

      auto remote = client->Query(sql);
      ASSERT_TRUE(remote.ok()) << remote.status().ToString();
      EXPECT_EQ(Canonical(remote->rows), Canonical(embedded->rows))
          << "strategy " << name << ", query: " << sql;
      ASSERT_EQ(remote->fields.size(), embedded->desc.num_fields());
      for (size_t i = 0; i < remote->fields.size(); ++i) {
        EXPECT_EQ(remote->fields[i].name, embedded->desc.field(i).name);
      }
    }
  }
}

TEST_F(ServerTest, PreparedStatementsHitThePlanCache) {
  StartServer();
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Command(".gen 4 10").ok());
  for (const std::string& def : workload::StandardRuleDefinitions(1)) {
    ASSERT_TRUE(client->Command(".rule " + def).ok());
  }
  auto stmt = client->Prepare("SELECT count(*) FROM caseR");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();

  auto first = client->Execute(*stmt);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->cache, CacheOutcome::kMiss);

  auto second = client->Execute(*stmt);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->cache, CacheOutcome::kHit);
  EXPECT_EQ(Canonical(first->rows), Canonical(second->rows));
  // The cached rewrite reuses the derivation's diagnostics verbatim.
  EXPECT_EQ(first->rewrite_note, second->rewrite_note);

  auto stats = server_->plan_cache_stats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_GE(stats.misses, 1u);

  ASSERT_TRUE(client->CloseStatement(*stmt).ok());
  auto gone = client->Execute(*stmt);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
}

TEST_F(ServerTest, PrepareReportsSyntaxErrorsWithLocation) {
  StartServer();
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  const std::string bad = "SELECT epc FROM";
  auto stmt = client->Prepare(bad);
  ASSERT_FALSE(stmt.ok());
  auto embedded = ParseSql(bad);
  ASSERT_FALSE(embedded.ok());
  EXPECT_EQ(stmt.status().code(), embedded.status().code());
  EXPECT_EQ(stmt.status().message(), embedded.status().message());
  EXPECT_NE(stmt.status().message().find("line 1"), std::string::npos);
}

TEST_F(ServerTest, PlanCacheInvalidatesOnStatsVersionBump) {
  StartServer();
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Command(".feed 2 64").ok());
  for (const std::string& def : workload::StandardRuleDefinitions(1)) {
    ASSERT_TRUE(client->Command(".rule " + def).ok());
  }
  const std::string sql = "SELECT count(*) FROM caseR";
  auto first = client->Query(sql);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->cache, CacheOutcome::kMiss);
  auto second = client->Query(sql);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->cache, CacheOutcome::kHit);

  // New batches publish new statistics: the cached rewrite was costed
  // against numbers that no longer exist, so the entry is invalidated
  // (distinct from a plain miss) and re-derived.
  ASSERT_TRUE(client->Command(".feed 2 64").ok());
  auto third = client->Query(sql);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->cache, CacheOutcome::kInvalidated);
  auto fourth = client->Query(sql);
  ASSERT_TRUE(fourth.ok());
  EXPECT_EQ(fourth->cache, CacheOutcome::kHit);
  EXPECT_GE(server_->plan_cache_stats().invalidations, 1u);
}

TEST_F(ServerTest, PlanCacheMissesOnRuleSetChange) {
  StartServer();
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Command(".gen 4 10").ok());
  std::vector<std::string> defs = workload::StandardRuleDefinitions(2);
  ASSERT_TRUE(client->Command(".rule " + defs[0]).ok());
  const std::string sql = "SELECT count(*) FROM caseR";
  ASSERT_TRUE(client->Query(sql).ok());
  auto hit = client->Query(sql);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->cache, CacheOutcome::kHit);

  // A rule-set change moves the catalog fingerprint: the old entry can
  // no longer be reached, so the same SQL misses and re-derives.
  ASSERT_TRUE(client->Command(".rule " + defs[1]).ok());
  auto miss = client->Query(sql);
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss->cache, CacheOutcome::kMiss);
}

TEST_F(ServerTest, SessionsHaveIsolatedRuleCatalogs) {
  StartServer();
  auto a = MustConnect();
  auto b = MustConnect();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(a->Command(".gen 4 10").ok());
  for (const std::string& def : workload::StandardRuleDefinitions(1)) {
    ASSERT_TRUE(a->Command(".rule " + def).ok());
  }
  auto a_rules = a->Command(".rules");
  ASSERT_TRUE(a_rules.ok());
  EXPECT_EQ(a_rules->find("(0 rules)"), std::string::npos);
  auto b_rules = b->Command(".rules");
  ASSERT_TRUE(b_rules.ok());
  EXPECT_NE(b_rules->find("(0 rules)"), std::string::npos);

  // A's queries are rewritten; B's run untouched (no rules → bypass).
  auto a_res = a->Query("SELECT count(*) FROM caseR");
  ASSERT_TRUE(a_res.ok());
  EXPECT_FALSE(a_res->rewrite_note.empty());
  auto b_res = b->Query("SELECT count(*) FROM caseR");
  ASSERT_TRUE(b_res.ok());
  EXPECT_TRUE(b_res->rewrite_note.empty());
  EXPECT_EQ(b_res->cache, CacheOutcome::kBypass);
  // The shared database never grows a __rules table for session rules.
  auto tables = a->Command(".tables");
  ASSERT_TRUE(tables.ok());
  EXPECT_EQ(tables->find("__rules"), std::string::npos);
}

TEST_F(ServerTest, ErrorFidelityMatchesEmbedded) {
  StartServer();
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Command(".gen 4 10").ok());
  Database db;
  GenEmbedded(&db, 4, 10);
  const std::vector<std::string> bad = {
      "SELECT FROM caseR",                 // syntax (line/column)
      "SELECT epc FROM nonexistent",       // binder: unknown table
      "SELECT nope FROM caseR",            // binder: unknown column
      "SELECT epc FROM caseR WHERE",       // syntax at end of input
  };
  for (const std::string& sql : bad) {
    auto embedded = ExecuteSql(db, sql);
    ASSERT_FALSE(embedded.ok()) << sql;
    auto remote = client->Query(sql);
    ASSERT_FALSE(remote.ok()) << sql;
    EXPECT_EQ(remote.status().code(), embedded.status().code()) << sql;
    EXPECT_EQ(remote.status().message(), embedded.status().message()) << sql;
  }
}

TEST_F(ServerTest, SetMaxRowsSurfacesRowLimit) {
  StartServer();
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Command(".gen 4 10").ok());
  ASSERT_TRUE(client->Set("max_rows", "5").ok());
  auto res = client->Query("SELECT epc FROM caseR");
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(res.status().message().find("row limit"), std::string::npos);
  ASSERT_TRUE(client->Set("max_rows", "0").ok());
  EXPECT_TRUE(client->Query("SELECT epc FROM caseR").ok());
}

TEST_F(ServerTest, SessionQuotaRejectsOverBudgetQueries) {
  ServerOptions options;
  options.admission.session_quota_bytes = 4 << 20;  // 4 MiB
  StartServer(options);
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Command(".gen 6 10").ok());
  // A full sort of caseR cannot fit a 4 MiB budget: the engine's own
  // accounting rejects it as ResourceExhausted — never an OOM.
  auto res = client->Query("SELECT * FROM caseR ORDER BY rtime");
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(res.status().message().find("memory budget"), std::string::npos);
  // The failure is per-query: the session keeps working under its quota.
  EXPECT_TRUE(client->Query("SELECT count(*) FROM caseR").ok());
}

TEST_F(ServerTest, AdmissionQueueFullAndTimeoutRejections) {
  ServerOptions options;
  options.admission.max_concurrent = 1;
  options.admission.queue_depth = 1;
  options.admission.queue_wait_micros = 300'000;  // 300 ms
  StartServer(options);
  auto holder = MustConnect();
  auto waiter = MustConnect();
  auto rejected = MustConnect();
  ASSERT_NE(holder, nullptr);
  ASSERT_NE(waiter, nullptr);
  ASSERT_NE(rejected, nullptr);
  ASSERT_TRUE(holder->Command(".gen 4 10").ok());

  // holder occupies the single slot for 900 ms; waiter queues and times
  // out after 300 ms; rejected finds the queue full while waiter waits.
  std::thread hold_thread([&] {
    auto res = holder->Command(".debug_hold 900");
    EXPECT_TRUE(res.ok()) << res.status().ToString();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  Status timeout_status, full_status;
  std::thread wait_thread([&] {
    timeout_status = waiter->Query("SELECT count(*) FROM caseR").status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  full_status = rejected->Query("SELECT count(*) FROM caseR").status();
  wait_thread.join();
  hold_thread.join();

  EXPECT_EQ(full_status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(full_status.message().find("queue full"), std::string::npos)
      << full_status.ToString();
  EXPECT_EQ(timeout_status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(timeout_status.message().find("queue wait deadline"),
            std::string::npos)
      << timeout_status.ToString();
  auto stats = server_->admission_stats();
  EXPECT_GE(stats.rejected_queue_full, 1u);
  EXPECT_GE(stats.rejected_timeout, 1u);
  // After the hold releases, the slot is free again.
  EXPECT_TRUE(holder->Query("SELECT count(*) FROM caseR").ok());
}

TEST_F(ServerTest, GracefulShutdownDrainsAndRefuses) {
  ServerOptions options;
  options.admission.max_concurrent = 1;
  StartServer(options);
  auto busy = MustConnect();
  ASSERT_NE(busy, nullptr);
  ASSERT_TRUE(busy->Command(".gen 4 10").ok());

  // Occupy the server with an in-flight command, then shut down under
  // load: the drain must wait for it, refuse new connections with a
  // clean ERROR frame, and fail queued admissions with kCancelled.
  Status hold_status = Status::Internal("hold never replied");
  std::thread hold_thread([&] {
    hold_status = busy->Command(".debug_hold 700").status();
  });
  // The hold owns the only admission slot before the shutdown starts.
  for (int i = 0; i < 400 && server_->admission_stats().running == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server_->admission_stats().running, 1);
  int running_after_shutdown = -1;
  std::thread shutdown_thread([&] {
    server_->Shutdown();
    running_after_shutdown = server_->admission_stats().running;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  // The drain is still waiting on the held slot: a new connection gets
  // the structured refusal rather than a hang or a reset.
  auto late = Client::Connect("127.0.0.1", server_->port());
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kCancelled);
  EXPECT_NE(late.status().message().find("shutting down"), std::string::npos);

  shutdown_thread.join();
  // Shutdown() returned only after the held command's server-side end:
  // the hold had already released its slot.
  EXPECT_EQ(running_after_shutdown, 0);
  hold_thread.join();
  // In-flight work completed with its reply delivered, not dropped.
  EXPECT_TRUE(hold_status.ok()) << hold_status.ToString();
  EXPECT_TRUE(server_->final_flush_status().ok());
}

TEST_F(ServerTest, ShutdownCancelsQueuedAdmissions) {
  ServerOptions options;
  options.admission.max_concurrent = 1;
  options.admission.queue_wait_micros = 5'000'000;
  StartServer(options);
  auto holder = MustConnect();
  auto queued = MustConnect();
  ASSERT_NE(holder, nullptr);
  ASSERT_NE(queued, nullptr);
  ASSERT_TRUE(holder->Command(".gen 4 10").ok());

  std::thread hold_thread([&] {
    (void)holder->Command(".debug_hold 800");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  Status queued_status;
  std::thread queued_thread([&] {
    queued_status = queued->Query("SELECT count(*) FROM caseR").status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  server_->Shutdown();
  queued_thread.join();
  hold_thread.join();
  EXPECT_EQ(queued_status.code(), StatusCode::kCancelled);
  EXPECT_NE(queued_status.message().find("shutting down"), std::string::npos)
      << queued_status.ToString();
}

TEST_F(ServerTest, ShutdownFlushesWalForRestartRecovery) {
  std::string dir = ::testing::TempDir() + "/server_wal_flush";
  std::filesystem::remove_all(dir);
  {
    StartServer();
    auto client = MustConnect();
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(client->Command(".wal " + dir).ok());
    ASSERT_TRUE(client->Command(".feed 3 64").ok());
    server_->Shutdown();
    ASSERT_TRUE(server_->final_flush_status().ok())
        << server_->final_flush_status().ToString();
    server_.reset();
  }
  // A fresh server recovers everything the first one ingested.
  StartServer();
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  auto rec = client->Command(".recover " + dir);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  auto rows = client->Query("SELECT count(*) FROM caseR");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_GT(rows->rows[0][0].int64_value(), 0);
}

}  // namespace
}  // namespace rfid
