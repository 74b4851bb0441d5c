#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>
#include <vector>

#include "common/simd.h"
#include "common/string_util.h"
#include "plan/planner.h"
#include "storage/columnar.h"
#include "rewrite/fragment_stitch.h"
#include "rewrite/rewriter.h"
#include "rfidgen/anomaly.h"
#include "rfidgen/rfidgen.h"
#include "sql/parser.h"
#include "storage/persist.h"
#include "verify/rule_linter.h"

namespace rfid::server {

namespace {

// Target of the installed SIGINT / SIGTERM handlers. The handler only
// dereferences this to call the async-signal-safe RequestShutdown().
std::atomic<Server*> g_signal_server{nullptr};

void HandleShutdownSignal(int /*signo*/) {
  Server* server = g_signal_server.load(std::memory_order_acquire);
  if (server != nullptr) server->RequestShutdown();
}

void SendError(int fd, const Status& error) {
  // Best effort: the peer may already be gone.
  (void)WriteFrame(fd, FrameType::kError, EncodeErrorPayload(error));
}

bool ParseOnOff(const std::string& value, bool* out) {
  if (value == "on") {
    *out = true;
    return true;
  }
  if (value == "off") {
    *out = false;
    return true;
  }
  return false;
}

}  // namespace

Server::InflightGuard::InflightGuard(Server* server, ExecContext* ctx)
    : server_(server), ctx_(ctx) {
  MutexLock lock(&server_->inflight_mu_);
  server_->inflight_.insert(ctx_);
  // A shutdown that ran before this query registered still has to cancel
  // it; re-check the flag under the same mutex the drain holds.
  if (server_->refusing_.load(std::memory_order_acquire)) {
    ctx_->RequestCancel("server shutting down");
  }
}

Server::InflightGuard::~InflightGuard() {
  MutexLock lock(&server_->inflight_mu_);
  server_->inflight_.erase(ctx_);
}

namespace {

// The fragment cache's capacity is carved out of the admission pool so
// cached cleansing results and query working memory draw from one global
// envelope; the carve is capped at half the pool so admission always
// keeps a usable budget.
size_t FragmentCarveBytes(const ServerOptions& options) {
  if (!options.fragment_cache_enabled) return 0;
  return std::min(options.fragment_cache_bytes,
                  options.admission.pool_bytes / 2);
}

cache::FragmentCacheOptions FragmentCacheOptionsFor(
    const ServerOptions& options) {
  cache::FragmentCacheOptions f;
  f.capacity_bytes = FragmentCarveBytes(options);
  f.enabled = options.fragment_cache_enabled;
  return f;
}

AdmissionOptions CarvedAdmission(const ServerOptions& options) {
  AdmissionOptions a = options.admission;
  a.pool_bytes -= FragmentCarveBytes(options);
  return a;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(options),
      sessions_(options.max_sessions),
      plan_cache_(options.plan_cache_capacity, options.plan_cache_enabled),
      fragment_cache_(FragmentCacheOptionsFor(options)),
      admission_(CarvedAdmission(options)) {}

Result<std::unique_ptr<Server>> Server::Start(ServerOptions options) {
  std::unique_ptr<Server> server(new Server(std::move(options)));
  Status st = server->Listen();
  if (!st.ok()) return st;
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

Status Server::Listen() {
  if (::pipe(wake_fd_) != 0) {
    return Status::Internal(
        StrFormat("pipe failed: %s", std::strerror(errno)));
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(
        StrFormat("socket failed: %s", std::strerror(errno)));
  }
  int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument(
        StrFormat("bad listen address: %s", options_.host.c_str()));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::Internal(StrFormat("bind %s:%d failed: %s",
                                      options_.host.c_str(), options_.port,
                                      std::strerror(errno)));
  }
  if (::listen(listen_fd_, 64) != 0) {
    return Status::Internal(
        StrFormat("listen failed: %s", std::strerror(errno)));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return Status::Internal(
        StrFormat("getsockname failed: %s", std::strerror(errno)));
  }
  port_ = ntohs(bound.sin_port);
  return Status::OK();
}

Server::~Server() {
  Shutdown();
  Server* self = this;
  g_signal_server.compare_exchange_strong(self, nullptr);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_[0] >= 0) ::close(wake_fd_[0]);
  if (wake_fd_[1] >= 0) ::close(wake_fd_[1]);
}

void Server::InstallSignalHandlers() {
  g_signal_server.store(this, std::memory_order_release);
  struct sigaction sa{};
  sa.sa_handler = HandleShutdownSignal;
  sigemptyset(&sa.sa_mask);
  (void)sigaction(SIGINT, &sa, nullptr);
  (void)sigaction(SIGTERM, &sa, nullptr);
}

void Server::RequestShutdown() {
  shutdown_requested_.store(true, std::memory_order_release);
  // Wake the accept loop; a single byte suffices and a full pipe means a
  // wake-up is already pending.
  char byte = 0;
  ssize_t ignored = ::write(wake_fd_[1], &byte, 1);
  (void)ignored;
}

void Server::WaitForShutdown() {
  {
    MutexLock lock(&shutdown_mu_);
    while (!shutdown_requested_.load(std::memory_order_acquire)) {
      shutdown_cv_.Wait(lock);
    }
  }
  Shutdown();
}

void Server::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    shutdown_requested_.store(true, std::memory_order_release);
    {
      // Cancel in-flight queries under the registry mutex so a context
      // cannot be destroyed mid-cancel; InflightGuard re-checks
      // `refusing_` under the same mutex, closing the race with queries
      // that registered after this loop.
      MutexLock lock(&inflight_mu_);
      refusing_.store(true, std::memory_order_release);
      for (ExecContext* ctx : inflight_) {
        ctx->RequestCancel("server shutting down");
      }
    }
    {
      MutexLock lock(&shutdown_mu_);
    }
    shutdown_cv_.NotifyAll();
    admission_.Shutdown();
    // Unblock connection threads parked in ReadFrame; their writes (the
    // in-flight query's response) still go through.
    {
      MutexLock lock(&conns_mu_);
      for (const auto& conn : conns_) {
        (void)::shutdown(conn->fd, SHUT_RD);
      }
    }
    auto drain = [this] {
      while (true) {
        std::unique_ptr<Connection> conn;
        {
          MutexLock lock(&conns_mu_);
          if (conns_.empty()) break;
          conn = std::move(conns_.front());
          conns_.pop_front();
        }
        if (conn->thread.joinable()) conn->thread.join();
        ::close(conn->fd);
      }
    };
    drain();
    // The accept thread kept refusing new connections with ERROR frames
    // during the drain above; now stop it and catch any straggler it
    // admitted between the first drain and its exit.
    accept_stop_.store(true, std::memory_order_release);
    char byte = 0;
    ssize_t ignored = ::write(wake_fd_[1], &byte, 1);
    (void)ignored;
    if (accept_thread_.joinable()) accept_thread_.join();
    {
      MutexLock lock(&conns_mu_);
      for (const auto& conn : conns_) {
        (void)::shutdown(conn->fd, SHUT_RD);
      }
    }
    drain();
    // Durability flush: a final checkpoint makes every published epoch
    // part of the base image, so restart recovery is instant.
    Status flush = Status::OK();
    {
      WriterLock state_lock(&state_mu_);
      if (pipeline_ != nullptr) {
        if (wal_ != nullptr) flush = pipeline_->Checkpoint();
      } else if (wal_ != nullptr) {
        flush = wal_->Checkpoint();
      }
    }
    MutexLock lock(&flush_mu_);
    final_flush_status_ = flush;
  });
}

Status Server::final_flush_status() const {
  MutexLock lock(&flush_mu_);
  return final_flush_status_;
}

void Server::ReapConnections() {
  std::vector<std::unique_ptr<Connection>> done;
  {
    MutexLock lock(&conns_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        done.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& conn : done) {
    if (conn->thread.joinable()) conn->thread.join();
    ::close(conn->fd);
  }
}

void Server::AcceptLoop() {
  while (true) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_fd_[0], POLLIN, 0}};
    int rc = ::poll(fds, 2, /*timeout_ms=*/200);
    ReapConnections();
    if (accept_stop_.load(std::memory_order_acquire)) return;
    if (shutdown_requested_.load(std::memory_order_acquire)) {
      // Hand the signal over to WaitForShutdown(); the drain keeps this
      // loop alive so late connections still get a clean ERROR frame.
      {
        MutexLock lock(&shutdown_mu_);
      }
      shutdown_cv_.NotifyAll();
    }
    if (rc <= 0) continue;
    if ((fds[1].revents & POLLIN) != 0) {
      char buf[64];
      ssize_t ignored = ::read(wake_fd_[0], buf, sizeof(buf));
      (void)ignored;
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // Responses are single writes (WriteFrame); never let Nagle hold one
    // back waiting on the client's delayed ACK. Best effort: a socket
    // that refuses the option still works, only slower.
    int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (refusing_.load(std::memory_order_acquire)) {
      SendError(fd, Status::Cancelled("server shutting down"));
      ::close(fd);
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    // Start the handler before publishing the connection: a concurrent
    // Shutdown() drain pops whatever is in conns_ and joins it, so an
    // entry must never be visible with its thread member still
    // unassigned (the drain would see joinable()==false and destroy the
    // Connection out from under this assignment). A connection accepted
    // while the first drain runs is published after it, and the second
    // drain — after this loop is joined — reaps it.
    raw->thread = std::thread([this, raw] { HandleConnection(raw); });
    {
      MutexLock lock(&conns_mu_);
      conns_.push_back(std::move(conn));
    }
  }
}

void Server::HandleConnection(Connection* conn) {
  const int fd = conn->fd;
  FrameType type;
  std::string payload;
  Status st = ReadFrame(fd, &type, &payload);
  std::shared_ptr<Session> session;
  if (st.ok() && type != FrameType::kHello) {
    st = Status::InvalidArgument(
        StrFormat("expected HELLO, got %s frame", FrameTypeName(type)));
  }
  if (st.ok()) {
    WireReader reader(payload);
    uint32_t version = 0;
    st = reader.GetU32(&version);
    if (st.ok()) st = reader.ExpectDone();
    if (st.ok() && version != kProtocolVersion) {
      st = Status::InvalidArgument(
          StrFormat("protocol version mismatch: client v%u, server v%u",
                    version, kProtocolVersion));
    }
  }
  if (st.ok() && refusing_.load(std::memory_order_acquire)) {
    st = Status::Cancelled("server shutting down");
  }
  if (st.ok()) {
    auto created = sessions_.Create(&db_);
    if (created.ok()) {
      session = std::move(*created);
    } else {
      st = created.status();
    }
  }
  if (!st.ok()) {
    // kNotFound is ReadFrame's clean-hangup marker: nothing to answer.
    if (st.code() != StatusCode::kNotFound) SendError(fd, st);
    conn->done.store(true, std::memory_order_release);
    return;
  }
  std::string welcome;
  PutU32(&welcome, kProtocolVersion);
  PutU64(&welcome, session->id);
  if (WriteFrame(fd, FrameType::kWelcome, welcome).ok()) {
    while (true) {
      st = ReadFrame(fd, &type, &payload);
      if (!st.ok()) break;
      FrameType out_type = FrameType::kError;
      std::string out;
      bool keep = DispatchFrame(*session, type, payload, &out_type, &out);
      if (!WriteFrame(fd, out_type, out).ok()) break;
      if (!keep) break;
    }
  }
  sessions_.Release(session->id);
  conn->done.store(true, std::memory_order_release);
}

bool Server::DispatchFrame(Session& session, FrameType type,
                           const std::string& payload, FrameType* out_type,
                           std::string* out) {
  WireReader reader(payload);
  auto fail = [&](const Status& st) {
    *out_type = FrameType::kError;
    *out = EncodeErrorPayload(st);
    return true;
  };
  auto ok_text = [&](std::string text) {
    *out_type = FrameType::kOk;
    out->clear();
    PutString(out, text);
    return true;
  };
  switch (type) {
    case FrameType::kQuery:
    case FrameType::kPrepare: {
      std::string sql;
      Status st = reader.GetString(&sql);
      if (st.ok()) st = reader.ExpectDone();
      if (!st.ok()) return fail(st);
      if (type == FrameType::kPrepare) {
        // Validate now so the client learns about syntax errors (with
        // line/column) at PREPARE time, not first EXECUTE.
        auto parsed = ParseSql(sql);
        if (!parsed.ok()) return fail(parsed.status());
        uint64_t id = session.next_statement_id++;
        session.prepared[id] = sql;
        *out_type = FrameType::kPrepared;
        out->clear();
        PutU64(out, id);
        return true;
      }
      auto rows = ExecuteQuery(session, sql);
      if (!rows.ok()) return fail(rows.status());
      *out_type = FrameType::kRows;
      *out = EncodeRowsPayload(*rows);
      return true;
    }
    case FrameType::kExecute:
    case FrameType::kCloseStmt: {
      uint64_t id = 0;
      Status st = reader.GetU64(&id);
      if (st.ok()) st = reader.ExpectDone();
      if (!st.ok()) return fail(st);
      auto it = session.prepared.find(id);
      if (it == session.prepared.end()) {
        return fail(Status::NotFound(StrFormat(
            "unknown prepared statement id %llu",
            static_cast<unsigned long long>(id))));
      }
      if (type == FrameType::kCloseStmt) {
        session.prepared.erase(it);
        return ok_text(StrFormat("closed statement %llu",
                                 static_cast<unsigned long long>(id)));
      }
      auto rows = ExecuteQuery(session, it->second);
      if (!rows.ok()) return fail(rows.status());
      *out_type = FrameType::kRows;
      *out = EncodeRowsPayload(*rows);
      return true;
    }
    case FrameType::kSet: {
      std::string key, value;
      Status st = reader.GetString(&key);
      if (st.ok()) st = reader.GetString(&value);
      if (st.ok()) st = reader.ExpectDone();
      if (!st.ok()) return fail(st);
      auto text = HandleSet(session, key, value);
      if (!text.ok()) return fail(text.status());
      return ok_text(std::move(*text));
    }
    case FrameType::kCommand: {
      std::string line;
      Status st = reader.GetString(&line);
      if (st.ok()) st = reader.ExpectDone();
      if (!st.ok()) return fail(st);
      auto text = HandleCommand(session, line);
      if (!text.ok()) return fail(text.status());
      return ok_text(std::move(*text));
    }
    case FrameType::kQuit: {
      ok_text("bye");
      return false;
    }
    default:
      fail(Status::InvalidArgument(StrFormat(
          "unexpected %s frame", FrameTypeName(type))));
      return true;
  }
}

Status Server::EnsureFeedStream() {
  if (stream_ != nullptr && !stream_->exhausted()) return Status::OK();
  rfidgen::StreamOptions opt;
  opt.seed = 20060912 + feed_generation_++;
  auto stream = rfidgen::ReadStream::Create(&db_, opt);
  if (!stream.ok()) return stream.status();
  stream_ = std::move(*stream);
  return Status::OK();
}

uint64_t Server::stats_version() const {
  // Caller holds state_mu_ (shared suffices: pipeline_ itself is only
  // swapped under the exclusive lock).
  return pipeline_ != nullptr ? pipeline_->stats_version() : 0;
}

Result<RowsPayload> Server::ExecuteQuery(Session& session,
                                         const std::string& sql) {
  if (refusing_.load(std::memory_order_acquire)) {
    return Status::Cancelled("server shutting down");
  }
  auto ticket = admission_.Admit();
  if (!ticket.ok()) return ticket.status();

  ReaderLock state_lock(&state_mu_);
  ExecLimits limits;
  // The session quota carves the admission pool: a query never gets more
  // budget than its session's share, even when the pool has room.
  limits.memory_budget_bytes =
      std::min(ticket->bytes(), admission_.options().session_quota_bytes);
  limits.timeout_micros = session.deadline_micros;
  limits.max_output_rows = session.max_rows;
  ExecContext ctx(limits);
  SnapshotPtr snapshot = session.held_snapshot;
  if (snapshot == nullptr && pipeline_ != nullptr) {
    snapshot = pipeline_->snapshot();
  }
  if (snapshot != nullptr) ctx.set_snapshot(snapshot);
  InflightGuard inflight(this, &ctx);

  RowsPayload out;
  std::string final_sql = sql;
  if (session.rewriting_enabled && !session.rules->rules().empty()) {
    const PlanKey key{sql, session.strategy, session.rewriting_enabled,
                      session.aggressive_pushdown,
                      session.rules->fingerprint()};
    const uint64_t data_version = data_version_.load(std::memory_order_acquire);
    const uint64_t stats = stats_version();
    const bool cache_on = plan_cache_.enabled();
    CacheOutcome outcome = CacheOutcome::kBypass;
    std::optional<CachedPlan> cached;
    if (cache_on) {
      cached = plan_cache_.Lookup(key, data_version, stats, &outcome);
    }
    if (cached.has_value()) {
      final_sql = cached->rewritten_sql;
      out.rewrite_note = cached->rewrite_note;
      out.warnings = cached->warnings;
      out.cache = outcome;
    } else {
      QueryRewriter rewriter(&db_, session.rules.get());
      RewriteOptions opts;
      opts.strategy = session.strategy;
      opts.aggressive_join_pushdown = session.aggressive_pushdown;
      opts.exec_context = &ctx;
      auto info = rewriter.Rewrite(sql, opts);
      if (!info.ok()) return info.status();
      final_sql = info->sql;
      std::string note;
      if (info->chosen != RewriteStrategy::kNone) {
        note = StrFormat("[rewritten: %s strategy, est. cost %.0f]",
                         RewriteStrategyName(info->chosen),
                         info->estimated_cost);
      }
      std::string warnings;
      for (const LintFinding& f : info->lint) {
        if (!warnings.empty()) warnings += "\n";
        warnings += f.ToString();
      }
      out.rewrite_note = note;
      if (session.show_candidates) {
        for (const RewriteCandidate& c : info->candidates) {
          out.rewrite_note += StrFormat("\n  candidate %-36s cost %12.0f",
                                        c.label.c_str(), c.estimated_cost);
        }
      }
      out.warnings = warnings;
      out.cache = outcome;
      if (cache_on) {
        CachedPlan plan;
        plan.rewritten_sql = final_sql;
        plan.chosen = info->chosen;
        plan.estimated_cost = info->estimated_cost;
        plan.rewrite_note = note;
        plan.warnings = warnings;
        plan.data_version = data_version;
        plan.stats_version = stats;
        plan_cache_.Insert(key, std::move(plan));
      }
    }
  }
  // Cleansed-fragment stitch: an execution-level substitution layered
  // under the rewrite decision above. The plan cache and rewriter keep
  // their semantics untouched (strategy errors, notes, cache outcomes);
  // when the stitch applies, the query instead executes region-scoped
  // cleansing sub-plans that consult the shared fragment cache — hit
  // regions skip the cleansing windows entirely, miss regions refill the
  // cache — stitched back together with UNION ALL. Results are
  // bit-identical to the rewritten SQL. The stitched text depends on
  // per-execution hit/miss state and on this query's context bindings,
  // so it never enters the plan cache; hit/miss counters surface in the
  // EXPLAIN header instead of the (cached, deterministic) rewrite note.
  std::string fragment_note;
  if (session.rewriting_enabled && !session.rules->rules().empty() &&
      fragment_cache_.enabled()) {
    auto stitch = StitchWithFragmentCache(sql, &db_, *session.rules,
                                          &fragment_cache_, &ctx);
    if (stitch.ok() && stitch->used) {
      final_sql = stitch->sql;
      fragment_note =
          StrFormat("fragments: hit=%zu miss=%zu", stitch->hits,
                    stitch->misses);
      if (session.show_candidates) {
        for (const FragmentRegionDetail& r : stitch->regions) {
          fragment_note += StrFormat("\n  region %-4zu %-28s %s", r.region,
                                     r.range.c_str(), r.hit ? "hit" : "miss");
        }
      }
    }
  }
  const auto start = std::chrono::steady_clock::now();
  auto res = ExecuteSql(db_, final_sql, &ctx);
  const auto end = std::chrono::steady_clock::now();
  if (!res.ok()) return res.status();
  out.elapsed_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(end - start)
          .count());
  for (size_t i = 0; i < res->desc.num_fields(); ++i) {
    out.fields.push_back(res->desc.field(i));
  }
  out.rows = std::move(res->rows);
  if (session.explain) {
    out.explain = res->explain;
    if (!fragment_note.empty()) {
      out.explain = fragment_note + "\n" + out.explain;
    }
  }
  ++session.queries_executed;
  return out;
}

Result<std::string> Server::HandleSet(Session& session, const std::string& key,
                                      const std::string& value) {
  if (key == "strategy") {
    if (value == "auto") {
      session.strategy = RewriteStrategy::kAuto;
    } else if (value == "expanded") {
      session.strategy = RewriteStrategy::kExpanded;
    } else if (value == "joinback") {
      session.strategy = RewriteStrategy::kJoinBack;
    } else if (value == "naive") {
      session.strategy = RewriteStrategy::kNaive;
    } else if (value == "off") {
      session.rewriting_enabled = false;
      return std::string("strategy = off (queries run on dirty data)");
    } else {
      return Status::InvalidArgument(
          "SET strategy expects auto|expanded|joinback|naive|off");
    }
    session.rewriting_enabled = true;
    return StrFormat("strategy = %s", value.c_str());
  }
  if (key == "pushdown" || key == "explain" || key == "candidates") {
    bool flag = false;
    if (!ParseOnOff(value, &flag)) {
      return Status::InvalidArgument(
          StrFormat("SET %s expects on|off", key.c_str()));
    }
    if (key == "pushdown") session.aggressive_pushdown = flag;
    if (key == "explain") session.explain = flag;
    if (key == "candidates") session.show_candidates = flag;
    return StrFormat("%s = %s", key.c_str(), flag ? "on" : "off");
  }
  if (key == "deadline_ms" || key == "max_rows") {
    errno = 0;
    char* endp = nullptr;
    const long long n = std::strtoll(value.c_str(), &endp, 10);
    if (errno != 0 || endp == value.c_str() || *endp != '\0' || n < 0) {
      return Status::InvalidArgument(
          StrFormat("SET %s expects a non-negative integer", key.c_str()));
    }
    if (key == "deadline_ms") {
      session.deadline_micros = static_cast<int64_t>(n) * 1000;
    } else {
      session.max_rows = static_cast<uint64_t>(n);
    }
    return StrFormat("%s = %lld", key.c_str(), n);
  }
  if (key == "snapshot") {
    if (value == "latest") {
      session.held_snapshot = nullptr;
      return std::string("snapshot = latest");
    }
    if (value == "hold") {
      ReaderLock state_lock(&state_mu_);
      if (pipeline_ == nullptr) {
        return Status::InvalidArgument(
            "SET snapshot hold requires a running ingest pipeline "
            "(.feed first)");
      }
      session.held_snapshot = pipeline_->snapshot();
      return StrFormat("snapshot held at epoch %llu",
                       static_cast<unsigned long long>(
                           session.held_snapshot->epoch));
    }
    return Status::InvalidArgument("SET snapshot expects hold|latest");
  }
  return Status::InvalidArgument(
      StrFormat("unknown SET key: %s (strategy, pushdown, explain, "
                "candidates, deadline_ms, max_rows, snapshot)",
                key.c_str()));
}

Result<std::string> Server::HandleCommand(Session& session,
                                          const std::string& line) {
  std::istringstream in(line);
  std::string cmd;
  in >> cmd;
  if (cmd == ".gen") {
    int64_t pallets = 20;
    double dirty = 10;
    in >> pallets >> dirty;
    WriterLock state_lock(&state_mu_);
    rfidgen::GeneratorOptions gen;
    gen.num_pallets = pallets;
    auto g = rfidgen::Generate(gen, &db_);
    if (!g.ok()) return g.status();
    rfidgen::AnomalyOptions anomalies;
    anomalies.dirty_fraction = dirty / 100.0;
    auto a = rfidgen::InjectAnomalies(anomalies, &db_);
    if (!a.ok()) return a.status();
    data_version_.fetch_add(1, std::memory_order_acq_rel);
    fragment_cache_.Clear();  // bulk mutation breaks append-only
    return StrFormat(
        "generated %lld case reads across %lld cases; injected %lld "
        "anomalies (%.0f%%)",
        static_cast<long long>(g->case_reads), static_cast<long long>(g->cases),
        static_cast<long long>(a->total()), dirty);
  }
  if (cmd == ".feed") {
    int64_t batches = 10;
    int64_t rows = 256;
    in >> batches >> rows;
    if (batches <= 0 || rows <= 0) {
      return Status::InvalidArgument("usage: .feed <batches> <rows_per_batch>");
    }
    // feed_mu_ serializes feeds and owns the stream; .wal / .recover take
    // it too, so nothing resets the stream or the pipeline while a feed
    // runs. Batches apply under the *shared* state lock, beside queries
    // (also shared); the pipeline's own writer lock orders each Apply
    // against snapshot pins. The exclusive lock is taken only to create
    // the pipeline (pointer swap) or the first stream (it adds the
    // RFIDGen tables to the catalog).
    MutexLock feed_lock(&feed_mu_);
    bool create;
    {
      ReaderLock state_lock(&state_mu_);
      create = pipeline_ == nullptr || db_.GetTable("caseR") == nullptr;
    }
    if (create) {
      WriterLock state_lock(&state_mu_);
      RFID_RETURN_IF_ERROR(EnsureFeedStream());
      if (pipeline_ == nullptr) {
        pipeline_ = std::make_unique<ingest::IngestPipeline>(
            &db_, /*accounting=*/nullptr, /*index_compact_threshold=*/8,
            wal_.get());
        pipeline_->set_fragment_cache(&fragment_cache_);
      }
    }
    ReaderLock state_lock(&state_mu_);
    RFID_RETURN_IF_ERROR(EnsureFeedStream());
    uint64_t applied = 0;
    uint64_t fed_rows = 0;
    for (int64_t i = 0; i < batches && !stream_->exhausted(); ++i) {
      rfidgen::StreamBatch b = stream_->NextBatch(static_cast<size_t>(rows));
      fed_rows += b.total_rows();
      std::vector<ingest::TableBatch> group;
      group.push_back({"caseR", std::move(b.case_rows)});
      group.push_back({"palletR", std::move(b.pallet_rows)});
      group.push_back({"parent", std::move(b.parent_rows)});
      group.push_back({"epc_info", std::move(b.info_rows)});
      Status st = pipeline_->Apply(std::move(group));
      if (!st.ok()) return st;
      ++applied;
    }
    return StrFormat(
        "fed %llu batches (%llu rows); epoch %llu%s",
        static_cast<unsigned long long>(applied),
        static_cast<unsigned long long>(fed_rows),
        static_cast<unsigned long long>(pipeline_->epoch()),
        stream_->exhausted() ? " (stream exhausted)" : "");
  }
  if (cmd == ".save" || cmd == ".load") {
    std::string dir;
    in >> dir;
    if (dir.empty()) {
      return Status::InvalidArgument(
          StrFormat("usage: %s <directory>", cmd.c_str()));
    }
    if (cmd == ".save") {
      ReaderLock state_lock(&state_mu_);
      Status st = SaveDatabase(db_, dir);
      if (!st.ok()) return st;
      return std::string("saved");
    }
    WriterLock state_lock(&state_mu_);
    Status st = LoadDatabase(dir, &db_, /*skip_existing=*/true);
    if (st.ok()) st = rfidgen::FinalizeDatabase(&db_);
    if (!st.ok()) return st;
    data_version_.fetch_add(1, std::memory_order_acq_rel);
    fragment_cache_.Clear();
    return std::string("loaded");
  }
  if (cmd == ".wal" || cmd == ".recover") {
    std::string dir, policy_name;
    in >> dir >> policy_name;
    if (dir.empty()) {
      return Status::InvalidArgument(
          StrFormat("usage: %s <directory> [always|epoch|off]", cmd.c_str()));
    }
    wal::WalOptions options;
    if (policy_name == "always") {
      options.fsync_policy = wal::FsyncPolicy::kAlways;
    } else if (policy_name == "off") {
      options.fsync_policy = wal::FsyncPolicy::kOff;
    } else if (!policy_name.empty() && policy_name != "epoch") {
      return Status::InvalidArgument(
          StrFormat("usage: %s <directory> [always|epoch|off]", cmd.c_str()));
    }
    // feed_mu_ first: an in-flight .feed finishes before the stream and
    // pipeline it uses are reset.
    MutexLock feed_lock(&feed_mu_);
    WriterLock state_lock(&state_mu_);
    auto manager = wal::WalManager::Open(dir, &db_, options);
    if (!manager.ok()) return manager.status();
    if (cmd == ".recover" && !(*manager)->recovery().recovered) {
      return Status::InvalidArgument(StrFormat(
          "%s holds no durability manifest (use .wal to create one)",
          dir.c_str()));
    }
    pipeline_.reset();  // rebuilt WAL-backed by the next .feed
    stream_.reset();
    fragment_cache_.Clear();  // replay / pipeline swap: start fresh
    wal_ = std::move(*manager);
    const wal::RecoveryResult& r = wal_->recovery();
    if (r.recovered) {
      data_version_.fetch_add(1, std::memory_order_acq_rel);
      return StrFormat(
          "recovered: checkpoint epoch %llu + %llu replayed epoch%s "
          "(%llu rows); fsync=%s",
          static_cast<unsigned long long>(r.checkpoint_epoch),
          static_cast<unsigned long long>(r.replayed_epochs),
          r.replayed_epochs == 1 ? "" : "s",
          static_cast<unsigned long long>(r.replayed_rows),
          wal::FsyncPolicyName(wal_->fsync_policy()));
    }
    return StrFormat("durability attached at %s (checkpoint 0 written); "
                     "fsync=%s",
                     dir.c_str(), wal::FsyncPolicyName(wal_->fsync_policy()));
  }
  if (cmd == ".checkpoint") {
    {
      // Pipeline-backed checkpoints run under the *shared* state lock:
      // the pipeline's own writer lock serializes the WAL work against
      // concurrent Apply(), and shared suffices to pin the pipeline_ /
      // wal_ pointers. This used to take the lock exclusive, stalling
      // every query (and .feed) behind the checkpoint's fsync+rename
      // (DESIGN.md §15 defect log). The checkpointed epoch comes back
      // through the out-param, read under the pipeline lock — the WAL's
      // own durable_epoch() accessor is not safe against a concurrent
      // feed here.
      ReaderLock state_lock(&state_mu_);
      if (pipeline_ != nullptr && wal_ != nullptr) {
        uint64_t durable = 0;
        Status st = pipeline_->Checkpoint(&durable);
        if (!st.ok()) return st;
        return StrFormat("checkpoint written at epoch %llu; log truncated",
                         static_cast<unsigned long long>(durable));
      }
    }
    // No pipeline: the bare WalManager is externally synchronized, and
    // the exclusive state lock is that synchronization.
    WriterLock state_lock(&state_mu_);
    if (wal_ == nullptr) {
      return Status::InvalidArgument(
          "no durability directory attached (use .wal <dir>)");
    }
    Status st = pipeline_ != nullptr ? pipeline_->Checkpoint()
                                     : wal_->Checkpoint();
    if (!st.ok()) return st;
    return StrFormat("checkpoint written at epoch %llu; log truncated",
                     static_cast<unsigned long long>(wal_->durable_epoch()));
  }
  if (cmd == ".rule") {
    // The rest of the line (including newlines) is the rule text.
    const size_t pos = line.find(".rule");
    std::string rule_text = line.substr(pos + 5);
    Status st = session.rules->DefineRule(rule_text);
    if (!st.ok()) return st;
    return std::string("rule defined");
  }
  if (cmd == ".droprule") {
    std::string name;
    in >> name;
    if (name.empty()) return Status::InvalidArgument("usage: .droprule <name>");
    Status st = session.rules->DropRule(name);
    if (!st.ok()) return st;
    return StrFormat("rule %s dropped", name.c_str());
  }
  if (cmd == ".rules") {
    std::string text;
    for (const CleansingRule& r : session.rules->rules()) {
      text += StrFormat("%-4lld %-24s %-12s %s\n",
                        static_cast<long long>(r.seq), r.name.c_str(),
                        r.on_table.c_str(), RuleActionName(r.action));
    }
    text += StrFormat("(%zu rule%s)", session.rules->rules().size(),
                      session.rules->rules().size() == 1 ? "" : "s");
    return text;
  }
  if (cmd == ".lint") {
    std::vector<LintFinding> findings = LintRules(session.rules->rules());
    std::string text;
    for (const LintFinding& f : findings) {
      text += f.ToString() + "\n";
    }
    text += StrFormat("(%zu finding%s over %zu rule%s)", findings.size(),
                      findings.size() == 1 ? "" : "s",
                      session.rules->rules().size(),
                      session.rules->rules().size() == 1 ? "" : "s");
    return text;
  }
  if (cmd == ".strategy") {
    std::string which;
    in >> which;
    return HandleSet(session, "strategy", which);
  }
  if (cmd == ".set") {
    std::string key, value;
    in >> key >> value;
    return HandleSet(session, key, value);
  }
  if (cmd == ".explain" || cmd == ".candidates") {
    std::string flag;
    in >> flag;
    return HandleSet(session, cmd.substr(1), flag);
  }
  if (cmd == ".tables") {
    ReaderLock state_lock(&state_mu_);
    std::string text;
    for (const std::string& name : db_.TableNames()) {
      const Table* t = db_.GetTable(name);
      text += StrFormat("%-12s %8zu rows\n", name.c_str(), t->num_rows());
    }
    if (!text.empty()) text.pop_back();
    return text;
  }
  if (cmd == ".schema") {
    std::string table;
    in >> table;
    ReaderLock state_lock(&state_mu_);
    const Table* t = db_.GetTable(table);
    if (t == nullptr) {
      return Status::NotFound(StrFormat("no such table: %s", table.c_str()));
    }
    return StrFormat("%s %s", t->name().c_str(),
                     t->schema().ToString().c_str());
  }
  if (cmd == ".cache") {
    std::string arg;
    in >> arg;
    if (arg == "on" || arg == "off") {
      plan_cache_.set_enabled(arg == "on");
      return StrFormat("plan cache %s", arg.c_str());
    }
    if (arg == "clear") {
      plan_cache_.Clear();
      return std::string("plan cache cleared");
    }
    if (arg == "fragment") {
      std::string sub;
      in >> sub;
      if (sub == "on" || sub == "off") {
        fragment_cache_.set_enabled(sub == "on");
        return StrFormat("fragment cache %s", sub.c_str());
      }
      if (sub == "clear") {
        fragment_cache_.Clear();
        return std::string("fragment cache cleared");
      }
      return Status::InvalidArgument("usage: .cache fragment on|off|clear");
    }
    if (arg == "stats" || arg.empty()) {
      PlanCache::Stats s = plan_cache_.stats();
      cache::FragmentCache::Stats f = fragment_cache_.stats();
      return StrFormat(
          "plan cache: %s, %zu entries, %llu hits, %llu misses, "
          "%llu invalidations, %llu evictions\n"
          "fragment cache: %s, %zu entries, %llu hits, %llu misses, "
          "%llu invalidations, %llu evictions, %llu inserts, "
          "%llu resident bytes",
          plan_cache_.enabled() ? "on" : "off", s.entries,
          static_cast<unsigned long long>(s.hits),
          static_cast<unsigned long long>(s.misses),
          static_cast<unsigned long long>(s.invalidations),
          static_cast<unsigned long long>(s.evictions),
          fragment_cache_.enabled() ? "on" : "off", f.entries,
          static_cast<unsigned long long>(f.hits),
          static_cast<unsigned long long>(f.misses),
          static_cast<unsigned long long>(f.invalidations),
          static_cast<unsigned long long>(f.evictions),
          static_cast<unsigned long long>(f.inserts),
          static_cast<unsigned long long>(f.resident_bytes));
    }
    return Status::InvalidArgument(
        "usage: .cache on|off|clear|stats | .cache fragment on|off|clear");
  }
  if (cmd == ".stats") {
    AdmissionController::Stats a = admission_.stats();
    PlanCache::Stats p = plan_cache_.stats();
    cache::FragmentCache::Stats f = fragment_cache_.stats();
    ColumnarCounters c = GlobalColumnarCounters();
    return StrFormat(
        "sessions: %d active (%llu total)\n"
        "admission: %llu admitted, %llu queued, %llu rejected "
        "(queue-full %llu, timeout %llu, shutdown %llu), %d running, "
        "%llu pool bytes used\n"
        "plan cache: %zu entries, %llu hits, %llu misses, "
        "%llu invalidations\n"
        "fragment cache: %zu entries, %llu hits, %llu misses, "
        "%llu invalidations, %llu resident bytes\n"
        "columnar: %llu segments encoded, %llu invalidated, "
        "%llu scanned, %llu skipped (simd=%s)",
        sessions_.active(),
        static_cast<unsigned long long>(sessions_.total_created()),
        static_cast<unsigned long long>(a.admitted),
        static_cast<unsigned long long>(a.queued),
        static_cast<unsigned long long>(a.rejected_queue_full +
                                        a.rejected_timeout +
                                        a.rejected_shutdown),
        static_cast<unsigned long long>(a.rejected_queue_full),
        static_cast<unsigned long long>(a.rejected_timeout),
        static_cast<unsigned long long>(a.rejected_shutdown), a.running,
        static_cast<unsigned long long>(a.pool_used), p.entries,
        static_cast<unsigned long long>(p.hits),
        static_cast<unsigned long long>(p.misses),
        static_cast<unsigned long long>(p.invalidations), f.entries,
        static_cast<unsigned long long>(f.hits),
        static_cast<unsigned long long>(f.misses),
        static_cast<unsigned long long>(f.invalidations),
        static_cast<unsigned long long>(f.resident_bytes),
        static_cast<unsigned long long>(c.segments_encoded),
        static_cast<unsigned long long>(c.segments_invalidated),
        static_cast<unsigned long long>(c.segments_scanned),
        static_cast<unsigned long long>(c.segments_skipped),
        simd::ActiveLevelName());
  }
  if (cmd == ".debug_hold") {
    // Test hook: occupy an admission slot for a fixed duration so tests
    // can deterministically fill the run queue.
    int64_t hold_ms = 0;
    in >> hold_ms;
    if (hold_ms <= 0) {
      return Status::InvalidArgument("usage: .debug_hold <milliseconds>");
    }
    auto ticket = admission_.Admit();
    if (!ticket.ok()) return ticket.status();
    std::this_thread::sleep_for(std::chrono::milliseconds(hold_ms));
    ticket->Release();
    return StrFormat("held an admission slot for %lld ms",
                     static_cast<long long>(hold_ms));
  }
  return Status::InvalidArgument(
      StrFormat("unknown command: %s", cmd.c_str()));
}

}  // namespace rfid::server
