// SQL server front end: a TCP server exposing the deferred-cleansing
// engine over the wire protocol in server/protocol.h.
//
// Architecture:
//  - one accept thread multiplexing the listen socket and a self-pipe
//    (the async-signal-safe shutdown wake-up);
//  - one thread per connection running a strict request/response loop;
//  - a SessionManager giving each connection its own rule catalog,
//    rewrite settings, prepared statements, and (optionally) a pinned
//    snapshot;
//  - a shared PlanCache memoizing rewrite decisions across sessions,
//    keyed on the SQL text, the rewrite settings, and the session's
//    rule-catalog fingerprint, and invalidated by data / statistics
//    version bumps;
//  - an AdmissionController mapping concurrent queries onto the
//    engine's worker pool and ExecContext budgets (every admitted query
//    reserves its budget from a global pool; over-quota work fails with
//    structured ResourceExhausted, never an OOM or a hang).
//
// Locking: queries and read-only commands take `state_mu_` shared;
// catalog-mutating commands (.gen, .load, .wal, .recover, .checkpoint)
// take it exclusive, so they wait for in-flight queries and vice versa.
// Streaming ingest (.feed) takes it shared: batch application runs
// against the pipeline's own writer lock while queries read pinned
// snapshots. .feed goes exclusive only to create the pipeline (first
// feed, or after .wal / .recover reset it) or the first stream, which
// adds the RFIDGen tables to the catalog; later passes stay shared.
//
// Graceful shutdown (SIGINT / SIGTERM via InstallSignalHandlers, or
// Shutdown() directly): the signal handler only sets a flag and writes
// the self-pipe; the drain then (1) refuses new connections and new
// queries with a clean ERROR frame, (2) fails queued admissions,
// (3) cancels in-flight queries through their ExecContexts (clients
// receive kCancelled "server shutting down" as a normal response),
// (4) joins every connection thread, and (5) flushes durability with a
// final checkpoint when a WAL is attached.
#ifndef RFID_SERVER_SERVER_H_
#define RFID_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "cache/fragment_cache.h"
#include "common/sync.h"
#include "exec/exec_context.h"
#include "ingest/ingest.h"
#include "rfidgen/stream.h"
#include "server/admission.h"
#include "server/plan_cache.h"
#include "server/protocol.h"
#include "server/session.h"
#include "storage/catalog.h"
#include "wal/wal_manager.h"

namespace rfid::server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = pick an ephemeral port; the bound port is available via port().
  int port = 0;
  int max_sessions = 64;
  AdmissionOptions admission;
  size_t plan_cache_capacity = 256;
  bool plan_cache_enabled = true;
  /// Cleansed-fragment cache capacity. The bytes are carved out of the
  /// admission pool (admission.pool_bytes) at construction so cache
  /// growth and query budgets draw from one global memory envelope;
  /// capped at half the pool.
  size_t fragment_cache_bytes = 64ULL << 20;
  bool fragment_cache_enabled = true;
};

class Server {
 public:
  /// Binds, listens, and starts the accept thread. The returned server
  /// is serving when this returns.
  static Result<std::unique_ptr<Server>> Start(ServerOptions options);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  int port() const { return port_; }

  /// Async-signal-safe shutdown request: sets a flag and writes the
  /// self-pipe. The drain itself runs in whatever thread calls
  /// WaitForShutdown() / Shutdown().
  void RequestShutdown();

  /// Blocks until a shutdown is requested (signal or RequestShutdown),
  /// then performs the full graceful drain.
  void WaitForShutdown();

  /// Graceful drain: refuse new work, cancel in-flight queries, join
  /// every thread, flush the WAL. Idempotent; safe to call concurrently
  /// (late callers block until the drain completes).
  void Shutdown();

  /// Routes SIGINT / SIGTERM to RequestShutdown() on this server. One
  /// server per process may install handlers at a time.
  void InstallSignalHandlers();

  // Introspection (tests, bench, .stats).
  PlanCache::Stats plan_cache_stats() const { return plan_cache_.stats(); }
  cache::FragmentCache::Stats fragment_cache_stats() const {
    return fragment_cache_.stats();
  }
  AdmissionController::Stats admission_stats() const {
    return admission_.stats();
  }
  int active_sessions() const { return sessions_.active(); }
  /// Status of the final WAL flush performed by Shutdown().
  Status final_flush_status() const;

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  /// Registers an in-flight query's ExecContext so shutdown can cancel
  /// it; unregisters on scope exit.
  class InflightGuard {
   public:
    InflightGuard(Server* server, ExecContext* ctx);
    ~InflightGuard();

   private:
    Server* server_;
    ExecContext* ctx_;
  };

  explicit Server(ServerOptions options);

  Status Listen();
  void AcceptLoop();
  void ReapConnections();
  void HandleConnection(Connection* conn);
  /// Handles one request frame; fills the response frame. Returns false
  /// when the connection should close after the response (QUIT).
  bool DispatchFrame(Session& session, FrameType type,
                     const std::string& payload, FrameType* out_type,
                     std::string* out);

  Result<RowsPayload> ExecuteQuery(Session& session, const std::string& sql);
  Result<std::string> HandleSet(Session& session, const std::string& key,
                                const std::string& value);
  Result<std::string> HandleCommand(Session& session, const std::string& line);

  uint64_t stats_version() const REQUIRES_SHARED(state_mu_);
  /// Starts .feed's next generator pass when there is none or the
  /// current one is exhausted. The first pass adds the RFIDGen tables to
  /// the catalog, so it needs state_mu_ exclusive; once they exist a pass
  /// only reads the catalog and shared suffices.
  Status EnsureFeedStream() REQUIRES(feed_mu_) REQUIRES_SHARED(state_mu_);

  ServerOptions options_;
  int port_ = 0;
  int listen_fd_ = -1;
  int wake_fd_[2] = {-1, -1};  // self-pipe: [0] read, [1] write

  Database db_;
  SessionManager sessions_;
  PlanCache plan_cache_;
  cache::FragmentCache fragment_cache_;
  AdmissionController admission_;

  /// Bumped by bulk mutations outside the ingest pipeline (.gen, .load,
  /// .recover); part of every plan-cache entry's version pair.
  std::atomic<uint64_t> data_version_{0};

  /// Serializes .feed and owns its generator stream. .wal / .recover
  /// take it before state_mu_, so a feed never sees the stream or the
  /// pipeline reset under it.
  Mutex feed_mu_{LockRank::kServerFeed};
  std::unique_ptr<rfidgen::ReadStream> stream_ GUARDED_BY(feed_mu_);
  uint64_t feed_generation_ GUARDED_BY(feed_mu_) = 0;

  /// Shared: queries and read-only commands. Exclusive: commands that
  /// mutate the catalog or swap the pipeline / WAL. Guards the *pointers*
  /// below: a shared holder may call through them (the pipeline has its
  /// own writer lock), it just cannot observe them being swapped.
  mutable SharedMutex state_mu_{LockRank::kServerState};
  std::unique_ptr<ingest::IngestPipeline> pipeline_ GUARDED_BY(state_mu_);
  std::unique_ptr<wal::WalManager> wal_ GUARDED_BY(state_mu_);

  Mutex inflight_mu_{LockRank::kServerInflight};
  std::set<ExecContext*> inflight_ GUARDED_BY(inflight_mu_);

  Mutex conns_mu_{LockRank::kServerConns};
  std::list<std::unique_ptr<Connection>> conns_ GUARDED_BY(conns_mu_);
  std::thread accept_thread_;

  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> refusing_{false};     // drain: ERROR frames, no new work
  std::atomic<bool> accept_stop_{false};  // accept thread exit flag
  std::once_flag shutdown_once_;
  Mutex shutdown_mu_{LockRank::kServerShutdown};
  CondVar shutdown_cv_;
  mutable Mutex flush_mu_{LockRank::kServerFlush};
  Status final_flush_status_ GUARDED_BY(flush_mu_);
};

}  // namespace rfid::server

#endif  // RFID_SERVER_SERVER_H_
