// DOP scaling sweep for morsel-driven parallel execution: runs the fig-9
// style cleansing query (q1, 10% rtime selectivity, first three rules)
// under each rewrite strategy at DOP 1/2/4/8, verifies every parallel run
// is bit-identical to the serial plan (exact row order and values), and
// reports p50/p95 latency plus speedup versus DOP 1. Only the table scan
// runs in parallel; the sorts, windows and joins above it are serial at
// every DOP, so the sweep measures the scan alone.
//
// Hand-rolled main (not google-benchmark): the sweep must flip the
// process-wide ParallelPolicy between measurements and compare result
// fingerprints across runs, which the fixture-per-benchmark model makes
// awkward. Exits nonzero if any parallel result diverges from serial.
//
// Usage: bench_parallel_scaling [--quick]
//   --quick   one repetition per point (CI smoke; full mode runs 5)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "exec/parallel.h"

namespace rfid::bench {
namespace {

// Exact serialization: row order matters (bit-identical, not set-equal).
std::string Fingerprint(const QueryResult& res) {
  std::string out;
  out.reserve(res.rows.size() * 32);
  for (const Row& r : res.rows) {
    for (const Value& v : r) {
      out += v.ToString();
      out += '|';
    }
    out += '\n';
  }
  return out;
}

double ElapsedMs(const Database& db, const std::string& sql,
                 QueryResult* out) {
  auto start = std::chrono::steady_clock::now();
  auto res = ExecuteSql(db, sql);
  auto end = std::chrono::steady_clock::now();
  if (!res.ok()) {
    fprintf(stderr, "query failed: %s\n", res.status().ToString().c_str());
    exit(1);
  }
  *out = std::move(*res);
  return std::chrono::duration<double, std::milli>(end - start).count();
}

int Run(bool quick) {
  const int reps = quick ? 1 : 5;
  const int dops[] = {1, 2, 4, 8};
  const unsigned cores = std::thread::hardware_concurrency();
  Database* db = GetDatabase(10);
  auto engine = MakeEngine(db, 3);
  std::string base = workload::Q1(workload::T1ForSelectivity(*db, 0.10));

  struct StrategyCase {
    const char* name;
    RewriteStrategy strategy;
  };
  const StrategyCase cases[] = {
      {"naive", RewriteStrategy::kNaive},
      {"expanded", RewriteStrategy::kExpanded},
      {"join_back", RewriteStrategy::kJoinBack},
  };

  printf("host: %u hardware threads (speedup is bounded by physical "
         "cores; on a 1-core host all DOPs time alike)\n",
         cores);
  printf("%-10s %5s %10s %10s %9s  %s\n", "strategy", "dop", "p50_ms",
         "p95_ms", "speedup", "identical");

  int failures = 0;
  std::vector<BenchEntry> json_entries;
  for (const StrategyCase& c : cases) {
    std::string sql = RewriteSql(db, engine.get(), base, c.strategy);

    // Serial ground truth: policy forced fully off.
    SetParallelPolicyForTest(1, 0);
    QueryResult serial;
    ElapsedMs(*db, sql, &serial);
    if (serial.rows.empty()) {
      fprintf(stderr, "[%s] produced no rows; sweep would be vacuous\n",
              c.name);
      SetParallelPolicyForTest(0, 0);
      return 1;
    }
    const std::string truth = Fingerprint(serial);

    double base_p50 = 0;
    for (int dop : dops) {
      // Low threshold so bench-scale tables actually fan out.
      SetParallelPolicyForTest(dop, 1024);
      std::vector<double> times;
      bool identical = true;
      for (int r = 0; r < reps; ++r) {
        QueryResult res;
        times.push_back(ElapsedMs(*db, sql, &res));
        if (Fingerprint(res) != truth) identical = false;
      }
      if (!identical) ++failures;
      double p50 = Percentile(times, 0.50);
      double p95 = Percentile(times, 0.95);
      if (dop == 1) base_p50 = p50;
      printf("%-10s %5d %10.2f %10.2f %8.2fx  %s\n", c.name, dop, p50, p95,
             base_p50 / (p50 > 0 ? p50 : 1e-9),
             identical ? "yes" : "NO - MISMATCH");
      json_entries.push_back(
          BenchEntry{std::string("parallel_scaling/") + c.name +
                         "/dop:" + std::to_string(dop),
                     p50, p95, "ms"});
    }
  }
  SetParallelPolicyForTest(0, 0);
  WriteBenchJson("parallel_scaling", json_entries);
  if (failures > 0) {
    fprintf(stderr, "%d parallel run(s) diverged from serial output\n",
            failures);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace rfid::bench

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--quick") == 0) quick = true;
  }
  return rfid::bench::Run(quick);
}
