// The server workloads: an in-process server::Server driven over real
// TCP connections by client::Client threads.
//
//  epc_lookup   per-EPC traceability lookups (the tracking query of Cao
//               et al.) at 40 pallets with the five standard rules,
//               open loop: seeded Poisson arrivals at 20 QPS served by 4
//               connections, EPCs drawn Zipf(1.0). The SQL text varies
//               per EPC, so the plan cache sees hits and misses.
//  live_ingest  writes beside reads (Bleach's setting): one connection
//               feeds micro-batches open loop with periodic checkpoints
//               while two closed-loop connections alternate q1 and q2;
//               then a graceful shutdown and recovery into a fresh
//               server.
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "plan/planner.h"
#include "rewrite/rewriter.h"
#include "rfidgen/anomaly.h"
#include "rfidgen/rfidgen.h"
#include "rfidgen/workload.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/columnar.h"

namespace rfidbench {

namespace {

using rfid::server::Client;
using rfid::server::RowsPayload;
using rfid::server::Server;

std::unique_ptr<Client> Connect(const Server& server) {
  auto client = Client::Connect("127.0.0.1", server.port());
  if (!client.ok()) Die("connect: " + client.status().ToString());
  return std::move(*client);
}

std::string Command(Client* client, const std::string& line) {
  auto text = client->Command(line);
  if (!text.ok()) Die(line.substr(0, 40) + ": " + text.status().ToString());
  return *text;
}

RowsPayload Query(Client* client, const std::string& sql) {
  auto rows = client->Query(sql);
  if (!rows.ok()) Die(sql.substr(0, 60) + ": " + rows.status().ToString());
  return std::move(*rows);
}

std::unique_ptr<Server> StartServer() {
  auto server = Server::Start(rfid::server::ServerOptions());
  if (!server.ok()) Die("server start: " + server.status().ToString());
  return std::move(*server);
}

void DefineRules(Client* client, int num_rules) {
  for (const std::string& def :
       rfid::workload::StandardRuleDefinitions(num_rules)) {
    Command(client, ".rule " + def);
  }
}

// Adds the operators of an EXPLAIN rendering ("Name [detail] rows=N
// mem=M checks=C dop=D batch=B" per line) to the traced counters.
void CountExplain(const std::string& explain, Tracer* tracer) {
  size_t pos = 0;
  while (pos < explain.size()) {
    size_t eol = explain.find('\n', pos);
    if (eol == std::string::npos) eol = explain.size();
    const std::string line = explain.substr(pos, eol - pos);
    pos = eol + 1;
    const size_t rows_at = line.rfind(" rows=");
    if (rows_at == std::string::npos) continue;  // header lines
    const size_t begin = line.find_first_not_of(' ');
    const size_t name_end = line.find_first_of(" [", begin);
    auto number_after = [&](const char* key) -> uint64_t {
      const size_t at = line.find(key, rows_at);
      if (at == std::string::npos) return 0;
      return std::strtoull(line.c_str() + at + std::strlen(key), nullptr, 10);
    };
    CountOperator(line.substr(begin, name_end - begin), number_after(" rows="),
                  static_cast<int>(number_after(" dop=")),
                  number_after(" mem="), tracer);
  }
}

// One remote query. Traced requests get a "server" root span (the client
// round trip) with the server-reported execution time as its "exec"
// child, so the root's self time is everything outside ExecuteSql: wire,
// admission, plan-cache lookup or rewrite, fragment stitch, encoding.
rfid::Result<RowsPayload> RemoteQuery(Client* client, const std::string& sql,
                                      bool traced, Tracer* tracer) {
  if (!traced) return client->Query(sql);
  const uint64_t req = tracer->NewRequest();
  Tracer::Span root(tracer, "server", req);
  auto res = client->Query(sql);
  if (res.ok()) root.set_detail(rfid::server::CacheOutcomeName(res->cache));
  const auto end = root.End();
  if (!res.ok()) return res;
  tracer->RecordReported("exec", req, root.id(), end,
                         static_cast<double>(res->elapsed_micros) / 1000.0,
                         "server-reported ExecuteSql time");
  CountExplain(res->explain, tracer);
  tracer->Add("exec.rows_out", static_cast<double>(res->rows.size()));
  tracer->Add("server.result_bytes",
              static_cast<double>(
                  rfid::server::EncodeRowsPayload(*res).size()));
  return res;
}

struct ServerCounters {
  rfid::server::PlanCache::Stats plan;
  rfid::server::AdmissionController::Stats admission;
  rfid::cache::FragmentCache::Stats fragment;
  rfid::ColumnarCounters columnar;

  static ServerCounters Read(const Server& s) {
    return {s.plan_cache_stats(), s.admission_stats(), s.fragment_cache_stats(),
            rfid::GlobalColumnarCounters()};
  }
};

// Layer counters over the measured phase (after minus before).
void AddServerCounters(const ServerCounters& a, const ServerCounters& b,
                       Tracer* tracer) {
  auto d = [](uint64_t x, uint64_t y) { return static_cast<double>(y - x); };
  const double lookups = d(a.plan.hits, b.plan.hits) +
                         d(a.plan.misses, b.plan.misses) +
                         d(a.plan.invalidations, b.plan.invalidations);
  tracer->Add("server.plan_cache_hit_ratio",
              lookups > 0 ? d(a.plan.hits, b.plan.hits) / lookups : 0);
  tracer->Add("server.plan_cache_invalidations",
              d(a.plan.invalidations, b.plan.invalidations));
  tracer->Add("server.plan_cache_evictions",
              d(a.plan.evictions, b.plan.evictions));
  tracer->Add("server.admission_queued",
              d(a.admission.queued, b.admission.queued));
  tracer->Add("server.admission_rejected",
              d(a.admission.rejected_queue_full + a.admission.rejected_timeout +
                    a.admission.rejected_shutdown,
                b.admission.rejected_queue_full + b.admission.rejected_timeout +
                    b.admission.rejected_shutdown));
  const double frag = d(a.fragment.hits, b.fragment.hits) +
                      d(a.fragment.misses, b.fragment.misses);
  tracer->Add("cache.fragment_hit_ratio",
              frag > 0 ? d(a.fragment.hits, b.fragment.hits) / frag : 0);
  tracer->Add("cache.fragment_invalidations",
              d(a.fragment.invalidations, b.fragment.invalidations));
  tracer->Add("cache.fragment_evictions",
              d(a.fragment.evictions, b.fragment.evictions));
  tracer->Add("cache.fragment_resident_mb",
              static_cast<double>(b.fragment.resident_bytes) / (1 << 20));
  tracer->Add("storage.segments_scanned",
              d(a.columnar.segments_scanned, b.columnar.segments_scanned));
  tracer->Add("storage.segments_skipped",
              d(a.columnar.segments_skipped, b.columnar.segments_skipped));
}

void Sleep(Clock::time_point until) {
  if (Clock::now() < until) std::this_thread::sleep_until(until);
}

int64_t CountRows(Client* client, const std::string& table) {
  RowsPayload r = Query(client, "SELECT count(*) FROM " + table);
  if (r.rows.size() != 1 || r.rows[0].empty()) Die("count(*) of " + table);
  return r.rows[0][0].int64_value();
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return bytes;
}

// ---------------------------------------------------------------- epc_lookup

constexpr char kLookupSql[] =
    "SELECT rtime, biz_loc, reader FROM caseR WHERE epc = '%s' ORDER BY rtime";

std::string LookupSql(const std::string& epc) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), kLookupSql, epc.c_str());
  return buf;
}

// The naive rewrite's answer for every EPC at once, on an embedded twin
// generated with the server's .gen defaults: all five rules cluster by
// epc, so the per-EPC lookup under naive is exactly the EPC's slice of
// the naive-cleansed table.
std::map<std::string, uint64_t> NaivePerEpc(int64_t pallets) {
  rfid::Database db;
  rfid::rfidgen::GeneratorOptions gen;
  gen.num_pallets = pallets;
  auto g = rfid::rfidgen::Generate(gen, &db);
  if (!g.ok()) Die("twin generate: " + g.status().ToString());
  rfid::rfidgen::AnomalyOptions anomalies;
  anomalies.dirty_fraction = 0.10;
  auto a = rfid::rfidgen::InjectAnomalies(anomalies, &db);
  if (!a.ok()) Die("twin inject: " + a.status().ToString());
  rfid::CleansingRuleEngine engine(&db);
  for (const std::string& def : rfid::workload::StandardRuleDefinitions(5)) {
    rfid::Status st = engine.DefineRule(def);
    if (!st.ok()) Die("twin rule: " + st.ToString());
  }
  rfid::RewriteOptions opts;
  opts.strategy = rfid::RewriteStrategy::kNaive;
  auto sql = rfid::QueryRewriter(&db, &engine).Rewrite(
      "SELECT epc, rtime, biz_loc, reader FROM caseR", opts);
  if (!sql.ok()) Die("twin naive rewrite: " + sql.status().ToString());
  auto res = rfid::ExecuteSql(db, sql->sql);
  if (!res.ok()) Die("twin naive run: " + res.status().ToString());
  std::map<std::string, std::vector<rfid::Row>> by_epc;
  for (rfid::Row& row : res->rows) {
    const std::string epc = row[0].string_value();
    row.erase(row.begin());
    by_epc[epc].push_back(std::move(row));
  }
  std::map<std::string, uint64_t> out;
  for (const auto& [epc, rows] : by_epc) out[epc] = HashRows(rows);
  return out;
}

Clock::time_point At(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

}  // namespace

void RunEpcLookup(const RunConfig& config, Tracer* tracer,
                  WorkloadResult* out) {
  const int64_t pallets = config.smoke ? 6 : 40;
  constexpr int kConnections = 4;
  constexpr double kRate = 20;  // offered requests per second
  out->tail_percentile = 0.95;

  std::unique_ptr<Server> server;
  std::unique_ptr<Client> plain;  // rule-free connection
  std::vector<std::unique_ptr<Client>> conns;
  for (int rep = 0; rep < SetupRepetitions(config); ++rep) {
    conns.clear();
    plain.reset();
    if (server != nullptr) server->Shutdown();
    server.reset();
    const auto t0 = Clock::now();
    server = StartServer();
    plain = Connect(*server);
    Command(plain.get(), ".gen " + std::to_string(pallets) + " 10");
    for (int i = 0; i < kConnections; ++i) {
      conns.push_back(Connect(*server));
      DefineRules(conns.back().get(), 5);
    }
    out->setup_s.push_back(SecondsBetween(t0, Clock::now()));
  }
  // Traced runs trace two of the four connections (with EXPLAIN on, for
  // operator row counts); the other two give the untraced comparison.
  if (tracer->enabled()) {
    for (int i = 0; i < kConnections / 2; ++i) {
      auto set = conns[static_cast<size_t>(i)]->Set("explain", "on");
      if (!set.ok()) Die("SET explain: " + set.status().ToString());
    }
  }

  // The EPC list must come from a rule-free connection: with the five
  // rules defined, a full read of caseR exceeds the session's budget.
  RowsPayload epc_rows = Query(plain.get(), "SELECT DISTINCT epc FROM caseR");
  std::vector<std::string> epcs;
  for (const rfid::Row& r : epc_rows.rows) epcs.push_back(r[0].string_value());
  std::sort(epcs.begin(), epcs.end());
  out->facts["epcs"] = std::to_string(epcs.size());

  std::mt19937_64 rng(config.seed);
  std::shuffle(epcs.begin(), epcs.end(), rng);  // Zipf rank -> EPC
  const ZipfSampler zipf(epcs.size());

  // Untimed warm-up: two lookups per connection.
  for (auto& c : conns) {
    for (int i = 0; i < 2; ++i) {
      if (!c->Query(LookupSql(epcs[zipf.Next(&rng)])).ok()) {
        Die("warm-up lookup");
      }
    }
  }

  const size_t n = static_cast<size_t>(kRate * config.seconds);
  const std::vector<double> arrivals = PoissonArrivals(&rng, n, config.seconds);
  std::vector<size_t> keys(n);
  for (size_t& k : keys) k = zipf.Next(&rng);

  struct Outcome {
    double latency_ms = 0;
    double lag_ms = 0;
    bool traced = false;
    Clock::time_point end{};
    std::string error;
    uint64_t hash = 0;
  };
  std::vector<Outcome> outcomes(n);
  std::atomic<size_t> next{0};
  const ServerCounters before = ServerCounters::Read(*server);
  ResetPeakRss();
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kConnections; ++t) {
    threads.emplace_back([&, t] {
      Client* client = conns[static_cast<size_t>(t)].get();
      const bool traced = tracer->enabled() && t < kConnections / 2;
      // Each connection takes the next request in arrival order and
      // sends it when due; latency counts from the due time, so a stall
      // charges the wait it imposes on every later request.
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        const auto due = At(start, arrivals[i]);
        const auto free_at = Clock::now();
        Sleep(due);
        const auto send = Clock::now();
        Outcome& o = outcomes[i];
        o.lag_ms = MsBetween(std::max(due, free_at), send);
        auto res =
            RemoteQuery(client, LookupSql(epcs[keys[i]]), traced, tracer);
        o.end = Clock::now();
        o.latency_ms = MsBetween(due, o.end);
        o.traced = traced;
        if (res.ok()) {
          o.hash = HashRows(res->rows);
        } else {
          o.error = res.status().ToString();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  out->peak_rss_mb = PeakRssMb();
  const ServerCounters after = ServerCounters::Read(*server);
  conns.clear();
  plain.reset();
  server->Shutdown();
  server.reset();

  const std::map<std::string, uint64_t> expected =
      NaiveReferences(config, kLookupSql, [&] { return NaivePerEpc(pallets); });
  Clock::time_point last = start;
  for (size_t i = 0; i < n; ++i) {
    const Outcome& o = outcomes[i];
    const std::string& epc = epcs[keys[i]];
    ++out->attempted;
    auto it = expected.find(epc);
    if (!o.error.empty()) {
      out->Fail(epc + ": " + o.error);
    } else if (it == expected.end() || it->second != o.hash) {
      out->Fail(epc + ": result differs from the naive rewrite");
    }
    out->AddLatency(o.latency_ms, "lookup", o.traced);
    out->gen_lag_ms.push_back(o.lag_ms);
    last = std::max(last, o.end);
  }
  out->checks.push_back(
      "every lookup's row hash equals the naive rewrite's on an embedded twin");
  out->measured_s = SecondsBetween(start, last);
  if (tracer->enabled()) AddServerCounters(before, after, tracer);
}

// ---------------------------------------------------------------- live_ingest

void RunLiveIngest(const RunConfig& config, Tracer* tracer,
                   WorkloadResult* out) {
  const int warm_feeds = config.smoke ? 5 : 20;
  constexpr double kFeedRate = 5;  // .feed requests per second, at most
  constexpr int kQueryConnections = 2;
  out->tail_percentile = 0.95;

  const std::string base =
      config.work_dir + "/live-" + std::to_string(::getpid());
  std::filesystem::remove_all(base);
  std::string wal_dir;
  std::unique_ptr<Server> server;
  std::unique_ptr<Client> feeder;  // rule-free: feeds, checkpoints, counts
  std::vector<std::unique_ptr<Client>> conns;
  for (int rep = 0; rep < SetupRepetitions(config); ++rep) {
    conns.clear();
    feeder.reset();
    if (server != nullptr) server->Shutdown();
    server.reset();
    if (!wal_dir.empty()) std::filesystem::remove_all(wal_dir);
    wal_dir = base + "/wal-" + std::to_string(rep);
    std::filesystem::create_directories(wal_dir);
    const auto t0 = Clock::now();
    server = StartServer();
    feeder = Connect(*server);
    Command(feeder.get(), ".wal " + wal_dir + " epoch");
    // Each call streams one generator pass (about 1k rows) to exhaustion.
    for (int i = 0; i < warm_feeds; ++i) {
      Command(feeder.get(), ".feed 1000 256");
    }
    for (int i = 0; i < kQueryConnections; ++i) {
      conns.push_back(Connect(*server));
      DefineRules(conns.back().get(), 3);  // reader, duplicate, replacing
    }
    out->setup_s.push_back(SecondsBetween(t0, Clock::now()));
  }
  out->facts["wal_filesystem"] = FilesystemName(wal_dir);
  out->facts["fsync_policy"] = "epoch";
  out->facts["warm_case_rows"] =
      std::to_string(CountRows(feeder.get(), "caseR"));
  if (tracer->enabled()) {
    auto set = conns[0]->Set("explain", "on");
    if (!set.ok()) Die("SET explain: " + set.status().ToString());
  }

  RowsPayload range =
      Query(feeder.get(), "SELECT min(rtime), max(rtime) FROM caseR");
  const int64_t lo = range.rows.at(0).at(0).timestamp_value();
  const int64_t hi = range.rows.at(0).at(1).timestamp_value();
  const std::string q1 = rfid::workload::Q1(lo + (hi - lo) / 2);
  const std::string q2 = rfid::workload::Q2(hi - (hi - lo) / 10);
  for (auto& c : conns) {
    if (!c->Query(q1).ok() || !c->Query(q2).ok()) Die("warm-up query");
  }

  // The writer's schedule: Poisson .feed times plus a .checkpoint at each
  // third of the phase. The writer waits for each acknowledgement before
  // its next request (a paced closed loop): every .feed takes the
  // server's state lock exclusively, behind running queries, so an open
  // loop at this rate would queue without bound on the seed server.
  std::mt19937_64 rng(config.seed);
  struct Event {
    double at_s;
    bool checkpoint;
  };
  std::vector<Event> events;
  const auto feeds = static_cast<size_t>(kFeedRate * config.seconds);
  for (double t : PoissonArrivals(&rng, feeds, config.seconds)) {
    events.push_back({t, false});
  }
  events.push_back({config.seconds / 3, true});
  events.push_back({2 * config.seconds / 3, true});
  std::stable_sort(
      events.begin(), events.end(),
      [](const Event& a, const Event& b) { return a.at_s < b.at_s; });

  std::vector<double> feed_ms;
  std::vector<double> checkpoint_ms;
  uint64_t fed_rows = 0;
  std::mutex mu;  // guards *out and the sample vectors above
  const ServerCounters before = ServerCounters::Read(*server);
  ResetPeakRss();
  const auto start = Clock::now();
  const auto stop = At(start, config.seconds);

  std::vector<std::thread> threads;
  for (int t = 0; t < kQueryConnections; ++t) {
    threads.emplace_back([&, t] {
      Client* client = conns[static_cast<size_t>(t)].get();
      const bool traced = tracer->enabled() && t == 0;
      auto prev_end = Clock::now();
      for (int i = 0; Clock::now() < stop; ++i) {
        const bool is_q1 = (i + t) % 2 == 0;
        const auto send = Clock::now();
        auto res = RemoteQuery(client, is_q1 ? q1 : q2, traced, tracer);
        const auto end = Clock::now();
        std::lock_guard<std::mutex> lock(mu);
        ++out->attempted;
        if (!res.ok()) {
          out->Fail((is_q1 ? "q1: " : "q2: ") + res.status().ToString());
        }
        out->AddLatency(MsBetween(send, end), is_q1 ? "q1" : "q2", traced);
        out->gen_lag_ms.push_back(MsBetween(prev_end, send));
        prev_end = Clock::now();
      }
    });
  }
  for (const Event& e : events) {
    const auto due = At(start, e.at_s);
    if (Clock::now() >= stop) break;
    const auto free_at = Clock::now();
    Sleep(due);
    const auto send = Clock::now();
    const uint64_t req = tracer->NewRequest();
    Tracer::Span span(tracer, e.checkpoint ? "wal" : "ingest", req);
    auto reply = feeder->Command(e.checkpoint ? ".checkpoint" : ".feed 1 100");
    span.End();
    const auto end = Clock::now();
    std::lock_guard<std::mutex> lock(mu);
    ++out->attempted;
    if (!reply.ok()) {
      out->Fail(std::string(e.checkpoint ? ".checkpoint: " : ".feed: ") +
                reply.status().ToString());
      continue;
    }
    (e.checkpoint ? checkpoint_ms : feed_ms).push_back(MsBetween(send, end));
    if (free_at < due) out->gen_lag_ms.push_back(MsBetween(due, send));
    // "fed 1 batches (N rows); epoch E"
    const size_t paren = reply->find('(');
    if (!e.checkpoint && paren != std::string::npos) {
      fed_rows += std::strtoull(reply->c_str() + paren + 1, nullptr, 10);
    }
  }
  for (std::thread& t : threads) t.join();
  out->peak_rss_mb = PeakRssMb();
  out->measured_s = SecondsBetween(start, Clock::now());
  const ServerCounters after = ServerCounters::Read(*server);
  const uint64_t wal_bytes = DirectoryBytes(wal_dir);

  const int64_t before_rows = CountRows(feeder.get(), "caseR");
  conns.clear();
  feeder.reset();
  server->Shutdown();
  server.reset();

  const auto r0 = Clock::now();
  server = StartServer();
  feeder = Connect(*server);
  Command(feeder.get(), ".recover " + wal_dir + " epoch");
  out->extra["recover_s"] = {SecondsBetween(r0, Clock::now()), "s"};
  const int64_t recovered_rows = CountRows(feeder.get(), "caseR");
  ++out->attempted;
  if (recovered_rows != before_rows) {
    out->Fail("recovered " + std::to_string(recovered_rows) +
              " caseR rows, had " + std::to_string(before_rows));
  }
  out->checks.push_back(
      "recovery restores exactly the caseR count acknowledged before "
      "shutdown");
  feeder.reset();
  server->Shutdown();
  server.reset();
  std::filesystem::remove_all(base);

  out->extra["ingest_p50_ms"] = {Percentile(feed_ms, 0.50), "ms"};
  out->extra["ingest_p75_ms"] = {Percentile(feed_ms, 0.75), "ms"};
  out->extra["ingest_rows_per_s"] = {
      static_cast<double>(fed_rows) / out->measured_s, "rows/s"};
  out->facts["feeds"] = std::to_string(feed_ms.size());
  if (tracer->enabled()) {
    AddServerCounters(before, after, tracer);
    tracer->Add("ingest.epochs", static_cast<double>(feed_ms.size()));
    tracer->Add("ingest.rows_fed", static_cast<double>(fed_rows));
    tracer->Add("wal.bytes_per_row",
                static_cast<double>(wal_bytes) /
                    static_cast<double>(std::max<int64_t>(1, before_rows)));
    tracer->Add("wal.checkpoint_ms", Percentile(checkpoint_ms, 0.5));
  }
}

}  // namespace rfidbench
