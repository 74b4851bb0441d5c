// Concurrency tests for the SQL server front end: many client threads
// with divergent rewrite strategies against a live-ingesting server,
// snapshot-pinned repeatable reads, plan-cache sharing across sessions,
// .feed racing .wal, and shutdown under load. Run under TSan in check.sh.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "rfidgen/workload.h"
#include "server/client.h"
#include "server/server.h"

namespace rfid {
namespace {

using server::CacheOutcome;
using server::Client;
using server::Server;
using server::ServerOptions;

std::vector<std::string> Canonical(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const Row& r : rows) {
    std::string s;
    for (const Value& v : r) s += v.ToString() + "|";
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ServerConcurrencyTest, SixteenSessionsThreeStrategiesAgainstLiveIngest) {
  ServerOptions options;
  options.admission.max_concurrent = 8;
  options.admission.queue_depth = 64;
  options.admission.queue_wait_micros = 30'000'000;
  auto srv = Server::Start(options);
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();
  Server* server = srv->get();

  // Seed the stream, then keep feeding while the clients hammer away.
  auto feeder_client = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(feeder_client.ok()) << feeder_client.status().ToString();
  ASSERT_TRUE((*feeder_client)->Command(".feed 2 64").ok());

  std::atomic<bool> stop_feeding{false};
  std::thread feeder([&] {
    while (!stop_feeding.load(std::memory_order_acquire)) {
      auto fed = (*feeder_client)->Command(".feed 1 32");
      if (!fed.ok()) break;  // stream exhausted is fine
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  constexpr int kSessions = 16;
  const char* kStrategies[] = {"naive", "expanded", "joinback"};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> queries_ok{0};
  std::vector<std::thread> workers;
  workers.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    workers.emplace_back([&, i] {
      auto client = Client::Connect("127.0.0.1", server->port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      if (!(*client)->Set("strategy", kStrategies[i % 3]).ok()) {
        ++failures;
        return;
      }
      for (const std::string& def : workload::StandardRuleDefinitions(1)) {
        if (!(*client)->Command(".rule " + def).ok()) {
          ++failures;
          return;
        }
      }
      for (int q = 0; q < 8; ++q) {
        auto res = (*client)->Query("SELECT count(*) FROM caseR");
        if (res.ok()) {
          ++queries_ok;
        } else if (res.status().code() != StatusCode::kResourceExhausted) {
          // Admission pushback is a legal answer under load; anything
          // else (crash, hang, protocol error) is not.
          ADD_FAILURE() << res.status().ToString();
          ++failures;
        }
      }
      (void)(*client)->Quit();
    });
  }
  for (auto& w : workers) w.join();
  stop_feeding.store(true, std::memory_order_release);
  feeder.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(queries_ok.load(), 0u);

  // Quiesced: every strategy must now agree bit-for-bit on the same
  // snapshot, across sessions.
  auto naive = Client::Connect("127.0.0.1", server->port());
  auto expanded = Client::Connect("127.0.0.1", server->port());
  auto joinback = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(expanded.ok());
  ASSERT_TRUE(joinback.ok());
  std::vector<std::pair<Client*, const char*>> clients = {
      {naive->get(), "naive"},
      {expanded->get(), "expanded"},
      {joinback->get(), "joinback"},
  };
  const std::string sql = "SELECT epc, biz_loc FROM caseR";
  std::vector<std::vector<std::string>> answers;
  for (auto& [client, strategy] : clients) {
    ASSERT_TRUE(client->Set("strategy", strategy).ok());
    for (const std::string& def : workload::StandardRuleDefinitions(1)) {
      ASSERT_TRUE(client->Command(".rule " + def).ok());
    }
    auto res = client->Query(sql);
    ASSERT_TRUE(res.ok()) << strategy << ": " << res.status().ToString();
    answers.push_back(Canonical(res->rows));
  }
  EXPECT_EQ(answers[0], answers[1]) << "expanded diverged from naive";
  EXPECT_EQ(answers[0], answers[2]) << "join-back diverged from naive";

  server->Shutdown();
}

TEST(ServerConcurrencyTest, HeldSnapshotGivesRepeatableReadsUnderIngest) {
  auto srv = Server::Start(ServerOptions{});
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();
  Server* server = srv->get();
  auto client = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Command(".feed 3 64").ok());
  ASSERT_TRUE((*client)->Set("snapshot", "hold").ok());
  auto before = (*client)->Query("SELECT count(*) FROM caseR");
  ASSERT_TRUE(before.ok());

  // More batches land, but the held session must not see them.
  auto feeder = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(feeder.ok());
  ASSERT_TRUE((*feeder)->Command(".feed 3 64").ok());

  auto during = (*client)->Query("SELECT count(*) FROM caseR");
  ASSERT_TRUE(during.ok());
  EXPECT_EQ(Canonical(before->rows), Canonical(during->rows));

  ASSERT_TRUE((*client)->Set("snapshot", "latest").ok());
  auto after = (*client)->Query("SELECT count(*) FROM caseR");
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after->rows[0][0].int64_value(), before->rows[0][0].int64_value());
  server->Shutdown();
}

// .wal resets the stream and pipeline that .feed uses. A feed racing a
// stream of .wal commands must never fail (the old code answered
// Internal("ingest state changed during .feed") when a .wal slipped in
// between creating them and applying batches).
TEST(ServerConcurrencyTest, FeedRacingWalNeverFailsInternally) {
  const std::string dir = ::testing::TempDir() + "/server_feed_wal_race";
  std::filesystem::remove_all(dir);
  auto srv = Server::Start(ServerOptions{});
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();
  Server* server = srv->get();
  auto feeder = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(feeder.ok());
  ASSERT_TRUE((*feeder)->Command(".feed 1 32").ok());

  std::atomic<bool> stop{false};
  std::atomic<int> feeds_ok{0};
  std::thread feed_thread([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto fed = (*feeder)->Command(".feed 1 16");
      if (!fed.ok()) {
        ADD_FAILURE() << fed.status().ToString();
        return;
      }
      ++feeds_ok;
    }
  });
  // Several sessions attach WALs back to back, so a .wal is nearly
  // always queued when a feed starts or finishes.
  constexpr int kAdmins = 3;
  constexpr int kSwapsEach = 8;
  std::vector<std::thread> admins;
  for (int a = 0; a < kAdmins; ++a) {
    admins.emplace_back([&, a] {
      auto admin = Client::Connect("127.0.0.1", server->port());
      ASSERT_TRUE(admin.ok()) << admin.status().ToString();
      for (int i = 0; i < kSwapsEach; ++i) {
        const std::string sub = std::to_string(a) + "-" + std::to_string(i);
        auto attached = (*admin)->Command(".wal " + dir + "/" + sub + " off");
        EXPECT_TRUE(attached.ok()) << attached.status().ToString();
      }
    });
  }
  for (auto& t : admins) t.join();
  stop.store(true, std::memory_order_release);
  feed_thread.join();
  EXPECT_GT(feeds_ok.load(), 0);

  // Quiesced: feeding still works on whatever state the last .wal left.
  auto fed = (*feeder)->Command(".feed 1 16");
  EXPECT_TRUE(fed.ok()) << fed.status().ToString();
  server->Shutdown();
  EXPECT_TRUE(server->final_flush_status().ok());
  std::filesystem::remove_all(dir);
}

TEST(ServerConcurrencyTest, PlanCacheSharedAcrossIdenticalCatalogs) {
  auto srv = Server::Start(ServerOptions{});
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();
  Server* server = srv->get();
  auto a = Client::Connect("127.0.0.1", server->port());
  auto b = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE((*a)->Command(".gen 4 10").ok());
  for (const std::string& def : workload::StandardRuleDefinitions(1)) {
    ASSERT_TRUE((*a)->Command(".rule " + def).ok());
    ASSERT_TRUE((*b)->Command(".rule " + def).ok());
  }
  const std::string sql = "SELECT count(*) FROM caseR";
  auto first = (*a)->Query(sql);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->cache, CacheOutcome::kMiss);
  // Identical rule catalogs produce identical fingerprints: session B
  // rides session A's cached rewrite.
  auto second = (*b)->Query(sql);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->cache, CacheOutcome::kHit);
  server->Shutdown();
}

TEST(ServerConcurrencyTest, ShutdownUnderConcurrentLoadIsClean) {
  ServerOptions options;
  options.admission.max_concurrent = 4;
  auto srv = Server::Start(options);
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();
  Server* server = srv->get();
  auto seed = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(seed.ok());
  ASSERT_TRUE((*seed)->Command(".gen 4 10").ok());

  std::atomic<int> protocol_failures{0};
  std::vector<std::thread> workers;
  for (int i = 0; i < 8; ++i) {
    workers.emplace_back([&] {
      auto client = Client::Connect("127.0.0.1", server->port());
      if (!client.ok()) return;  // refused during drain: expected
      while (true) {
        auto res = (*client)->Query("SELECT count(*) FROM caseR");
        if (res.ok()) continue;
        const StatusCode code = res.status().code();
        // Every terminal outcome must be structured: cancellation or
        // pushback from the drain, or the orderly hangup marker.
        if (code != StatusCode::kCancelled &&
            code != StatusCode::kResourceExhausted &&
            code != StatusCode::kNotFound && code != StatusCode::kInternal) {
          ++protocol_failures;
        }
        return;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  server->Shutdown();
  for (auto& w : workers) w.join();
  EXPECT_EQ(protocol_failures.load(), 0);
  EXPECT_TRUE(server->final_flush_status().ok());
}

}  // namespace
}  // namespace rfid
