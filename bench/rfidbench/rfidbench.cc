// rfidbench: the repository's benchmark program.
//
//   rfidbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>] [--work <dir>] [--commit <sha>]
//   rfidbench --smoke [--declared BENCHMARK.json]
//
// One workload per process. The seed drives the workload (query order,
// EPC draws, arrival times); the data generators are pinned, so every
// seed queries the same data. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}, holding the
// end-to-end metrics, or with --trace 1 the per-layer metrics of a traced
// run. The full result (configuration, samples, workload-specific
// metrics) goes to <out>/<workload>-seed<n>[.trace].json; a traced run
// also writes the spans as Chrome trace-event JSON and a per-layer
// self-time summary next to it.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/simd.h"
#include "exec/parallel.h"
#include "expr/row_batch.h"
#include "json.h"
#include "storage/columnar.h"

extern char** environ;

namespace rfidbench {
namespace {

#ifndef RFIDBENCH_BUILD_TYPE
#define RFIDBENCH_BUILD_TYPE "unknown"
#endif

const std::vector<std::string> kWorkloads = {"analytic_5rules", "analytic_400p",
                                             "epc_lookup", "live_ingest"};

// The layers with a span on some request path; each reports its share of
// request time on every workload (0 where it is not on the path).
const std::vector<std::string> kTimedLayers = {
    "rewrite", "sql", "plan", "exec", "server", "ingest", "wal"};

struct Options {
  RunConfig run;
  std::string out_dir = ".bench_build/results";
  std::string commit = "unknown";
  std::string declared;  // BENCHMARK.json checked by --smoke
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "rfidbench: %s\n"
               "usage: rfidbench --workload <analytic_5rules|analytic_400p|"
               "epc_lookup|live_ingest>\n"
               "                 --seed <n> --seconds <s> --trace <0|1>\n"
               "                 [--out <dir>] [--work <dir>] "
               "[--commit <sha>]\n"
               "       rfidbench --smoke [--declared <BENCHMARK.json>]\n",
               why.c_str());
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  o.run.work_dir = ".bench_build/work";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      o.run.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + arg);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      if (std::find(kWorkloads.begin(), kWorkloads.end(), v) ==
          kWorkloads.end()) {
        Usage("unknown workload " + v);
      }
      o.run.workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      o.run.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') Usage("bad --seed " + v);
    } else if (arg == "--seconds") {
      o.run.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(o.run.seconds > 0) ||
          o.run.seconds > 3600) {
        Usage("bad --seconds " + v);
      }
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      o.run.trace = v == "1";
    } else if (arg == "--out") {
      o.out_dir = v;
    } else if (arg == "--work") {
      o.run.work_dir = v;
    } else if (arg == "--commit") {
      o.commit = v;
    } else if (arg == "--declared") {
      o.declared = v;
    } else {
      Usage("unknown argument " + arg);
    }
  }
  if (!o.run.smoke && !have_workload) Usage("--workload is required");
  return o;
}

// Engine toggles are read from RFID_* environment variables; a run under
// any of them would measure a configuration other than the shipped one.
void RefuseEngineToggles() {
  std::vector<std::string> set;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "RFID_", 5) == 0) set.emplace_back(*e);
  }
  if (set.empty()) return;
  for (const std::string& s : set) {
    std::fprintf(stderr, "rfidbench: engine toggle %s is set; unset it\n",
                 s.c_str());
  }
  std::exit(2);
}

using Metrics = std::map<std::string, Metric>;

Metrics EndToEnd(const WorkloadResult& r) {
  Metrics m;
  m["setup_s"] = {Percentile(r.setup_s, 0.5), "s"};
  m["lat_p50_ms"] = {Percentile(r.latencies_ms, 0.5), "ms"};
  m["lat_tail_ms"] = {Percentile(r.latencies_ms, r.tail_percentile), "ms"};
  m["throughput_qps"] = {
      static_cast<double>(r.latencies_ms.size()) / std::max(1e-9, r.measured_s),
      "queries/s"};
  m["peak_rss_mb"] = {r.peak_rss_mb, "MiB"};
  return m;
}

// Per-layer metrics of a traced run. Row and segment counts are per
// query; cache and admission counters cover the measured phase.
Metrics PerLayer(const Tracer& tracer, const WorkloadResult& r,
                 const std::vector<Tracer::Request>& requests,
                 const Tracer::LayerSummary& summary) {
  Metrics m;
  double named = 0;
  for (const std::string& layer : kTimedLayers) {
    auto it = summary.layers.find(layer);
    const double share = it == summary.layers.end() ? 0 : it->second.share_pct;
    m[layer + ".share_pct"] = {share, "%"};
    named += share;
  }
  m["layers.named_share_pct"] = {named, "%"};

  // Time inside ExecuteSql (parse, plan, run) and everything else on a
  // query's path; the server reports the former itself.
  std::vector<double> exec_ms;
  std::vector<double> outside_ms;
  for (const Tracer::Request& req : requests) {
    if (req.root != "request" && req.root != "server") continue;
    double inside = 0;
    for (const char* layer : {"sql", "plan", "exec"}) {
      auto it = req.self_ms.find(layer);
      if (it != req.self_ms.end()) inside += it->second;
    }
    exec_ms.push_back(inside);
    outside_ms.push_back(req.total_ms - inside);
  }
  m["request.exec_ms"] = {Percentile(exec_ms, 0.5), "ms"};
  m["request.outside_exec_ms"] = {Percentile(outside_ms, 0.5), "ms"};

  const double traced = std::max(1.0, static_cast<double>(exec_ms.size()));
  const double queries =
      std::max(1.0, static_cast<double>(r.latencies_ms.size()));
  m["rewrite.candidates"] = {tracer.Sum("rewrite.candidates") / traced,
                             "count"};
  m["plan.max_dop"] = {tracer.MaxOf("plan.max_dop"), "count"};
  m["plan.root_qerror"] = {Percentile(tracer.Samples("plan.root_qerror"), 0.5),
                           "ratio"};
  for (const char* name : {"exec.scan_rows", "exec.sort_rows",
                           "exec.window_rows", "exec.join_rows"}) {
    m[name] = {tracer.Sum(name) / traced, "rows"};
  }
  m["exec.rows_examined_per_row_out"] = {
      tracer.Sum("exec.scan_rows") / std::max(1.0, tracer.Sum("exec.rows_out")),
      "ratio"};
  m["exec.peak_mem_mb"] = {std::max(tracer.MaxOf("exec.peak_mem_mb"),
                                    tracer.MaxOf("exec.op_peak_mem_mb")),
                           "MiB"};
  const double scanned = tracer.Sum("storage.segments_scanned");
  const double skipped = tracer.Sum("storage.segments_skipped");
  m["storage.segments_scanned"] = {scanned / queries, "count"};
  m["storage.segments_skipped"] = {skipped / queries, "count"};
  m["storage.zone_skip_ratio"] = {
      scanned + skipped > 0 ? skipped / (scanned + skipped) : 0, "ratio"};
  m["server.result_bytes"] = {tracer.Sum("server.result_bytes") / traced,
                              "bytes"};
  for (const char* name :
       {"server.plan_cache_hit_ratio", "cache.fragment_hit_ratio"}) {
    m[name] = {tracer.Sum(name), "ratio"};
  }
  for (const char* name :
       {"server.plan_cache_invalidations", "server.plan_cache_evictions",
        "server.admission_queued", "server.admission_rejected",
        "cache.fragment_invalidations", "cache.fragment_evictions",
        "ingest.epochs", "ingest.rows_fed"}) {
    m[name] = {tracer.Sum(name), "count"};
  }
  m["cache.fragment_resident_mb"] = {
      tracer.Sum("cache.fragment_resident_mb"), "MiB"};
  m["wal.bytes_per_row"] = {tracer.Sum("wal.bytes_per_row"), "bytes"};
  m["bench.gen_lag_p99_ms"] = {Percentile(r.gen_lag_ms, 0.99), "ms"};
  std::vector<double> traced_ms;
  std::vector<double> plain_ms;
  for (size_t i = 0; i < r.latencies_ms.size(); ++i) {
    (r.traced[i] ? traced_ms : plain_ms).push_back(r.latencies_ms[i]);
  }
  double overhead_pct = 0;
  if (!plain_ms.empty()) {
    overhead_pct =
        100 * (Percentile(traced_ms, 0.5) / Percentile(plain_ms, 0.5) - 1);
  }
  m["bench.trace_overhead_pct"] = {overhead_pct, "%"};
  return m;
}

std::string MetricsJson(const Metrics& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    out += JsonStr(name) + ": {\"value\": " + JsonNum(metric.value) +
           ", \"unit\": " + JsonStr(metric.unit) + "}";
  }
  return out + "}";
}

std::string StringsJson(const std::vector<std::string>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonStr(v[i]);
  }
  return out + "]";
}

std::string NumbersJson(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonNum(v[i]);
  }
  return out + "]";
}

std::string ConfigJson(const Options& o, const WorkloadResult& r) {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::string out =
      "{\"commit\": " + JsonStr(o.commit) +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"simd\": " + JsonStr(rfid::simd::ActiveLevelName()) +
      ", \"max_dop\": " +
      std::to_string(rfid::CurrentParallelPolicy().max_dop) +
      ", \"batch_capacity\": " + std::to_string(rfid::BatchCapacity()) +
      ", \"vectorized\": " + (rfid::VectorizedEnabled() ? "true" : "false") +
      ", \"columnar\": " + (rfid::ColumnarEnabled() ? "true" : "false") +
      ", \"build_type\": " + JsonStr(RFIDBENCH_BUILD_TYPE) +
      ", \"ndebug\": " + (ndebug ? "true" : "false");
  for (const auto& [k, v] : r.facts) {
    out += ", " + JsonStr(k) + ": " + JsonStr(v);
  }
  return out + "}";
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  f.close();
  return static_cast<bool>(f);
}

// The layers file of a traced run: self time per layer, the per-layer
// metrics, the raw counters, and for remote queries the time outside
// ExecuteSql split by plan-cache outcome.
std::string LayersJson(const Options& o, const RunConfig& run,
                       const Tracer& tracer,
                       const std::vector<Tracer::Request>& requests,
                       const Tracer::LayerSummary& summary,
                       const Metrics& per_layer) {
  Metrics split;
  for (const char* outcome : {"hit", "miss", "invalidated"}) {
    std::vector<double> ms;
    for (const Tracer::Request& req : requests) {
      if (req.root != "server" || req.detail != outcome) continue;
      auto it = req.self_ms.find("exec");
      ms.push_back(req.total_ms - (it == req.self_ms.end() ? 0 : it->second));
    }
    if (ms.empty()) continue;
    split[std::string("server.outside_exec_ms.") + outcome] = {
        Percentile(ms, 0.5), "ms"};
    split[std::string("server.requests.") + outcome] = {
        static_cast<double>(ms.size()), "count"};
  }
  std::string layers = "{";
  for (const auto& [name, l] : summary.layers) {
    if (layers.size() > 1) layers += ", ";
    layers += JsonStr(name) + ": {\"requests\": " + std::to_string(l.requests) +
              ", \"self_ms_p50\": " + JsonNum(l.self_ms_p50) +
              ", \"self_ms_sum\": " + JsonNum(l.self_ms_sum) +
              ", \"share_pct\": " + JsonNum(l.share_pct) + "}";
  }
  std::string counters = "{";
  for (const auto& [name, v] : tracer.Sums()) {
    if (counters.size() > 1) counters += ", ";
    counters += JsonStr(name) + ": " + JsonNum(v);
  }
  return "{\"workload\": " + JsonStr(run.workload) +
         ", \"seed\": " + std::to_string(run.seed) +
         ", \"commit\": " + JsonStr(o.commit) +
         ", \"requests\": " + std::to_string(summary.requests) +
         ", \"request_ms_total\": " + JsonNum(summary.request_ms_total) +
         ", \"layers\": " + layers + "}" +
         ", \"metrics\": " + MetricsJson(per_layer) +
         ", \"outside_exec_by_cache\": " + MetricsJson(split) +
         ", \"counters\": " + counters + "}}\n";
}

struct Outcome {
  WorkloadResult result;
  Metrics end_to_end;
  Metrics per_layer;
  bool correct = false;
};

Outcome RunOne(const Options& o, const RunConfig& run) {
  Outcome oc;
  Tracer tracer(run.trace);
  WorkloadResult& r = oc.result;
  if (run.workload == "epc_lookup") {
    RunEpcLookup(run, &tracer, &r);
  } else if (run.workload == "live_ingest") {
    RunLiveIngest(run, &tracer, &r);
  } else {
    RunAnalytic(run, &tracer, &r);
  }
  oc.correct = r.failed == 0 && r.attempted > 0;
  for (const std::string& f : r.failure_samples) {
    std::fprintf(stderr, "rfidbench: %s: %s\n", run.workload.c_str(),
                 f.c_str());
  }
  oc.end_to_end = EndToEnd(r);
  const double gen_lag_p99 = Percentile(r.gen_lag_ms, 0.99);
  const bool valid = gen_lag_p99 <= 5.0;
  if (!valid) {
    std::fprintf(stderr,
                 "rfidbench: %s: load generator ran %.2f ms late at p99; "
                 "run flagged invalid\n",
                 run.workload.c_str(), gen_lag_p99);
  }

  std::error_code ec;
  std::filesystem::create_directories(o.out_dir, ec);
  const std::string stem = o.out_dir + "/" + run.workload + "-seed" +
                           std::to_string(run.seed) +
                           (run.trace ? ".trace" : "");
  if (run.trace) {
    const std::vector<Tracer::Request> requests = tracer.Requests();
    const Tracer::LayerSummary summary = Tracer::Summarize(requests);
    oc.per_layer = PerLayer(tracer, r, requests, summary);
    if (!tracer.WriteChromeTrace(stem + ".chrome.json") ||
        !WriteFile(stem + ".layers.json", LayersJson(o, run, tracer, requests,
                                                     summary, oc.per_layer))) {
      std::fprintf(stderr, "rfidbench: cannot write trace files under %s\n",
                   o.out_dir.c_str());
    }
  }

  const std::string result =
      "{\"workload\": " + JsonStr(run.workload) +
      ", \"seed\": " + std::to_string(run.seed) +
      ", \"seconds\": " + JsonNum(run.seconds) +
      ", \"trace\": " + (run.trace ? "true" : "false") +
      ", \"smoke\": " + (run.smoke ? "true" : "false") +
      ", \"config\": " + ConfigJson(o, r) +
      ", \"correct\": " + (oc.correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(r.attempted) +
      ", \"failed\": " + std::to_string(r.failed) +
      ", \"failures\": " + StringsJson(r.failure_samples) +
      ", \"checks\": " + StringsJson(r.checks) +
      ", \"valid\": " + (valid ? "true" : "false") +
      ", \"samples\": {\"latency\": " + std::to_string(r.latencies_ms.size()) +
      ", \"setup\": " + std::to_string(r.setup_s.size()) + "}" +
      ", \"tail_percentile\": " + JsonNum(r.tail_percentile) +
      ", \"measured_s\": " + JsonNum(r.measured_s) +
      ", \"latencies_ms\": " + NumbersJson(r.latencies_ms) +
      ", \"labels\": " + StringsJson(r.labels) +
      ", \"metrics\": " + MetricsJson(oc.end_to_end) +
      ", \"extra\": " + MetricsJson(r.extra) +
      ", \"layers\": " + MetricsJson(oc.per_layer) + "}";
  if (!WriteFile(stem + ".json", result + "\n")) {
    std::fprintf(stderr, "rfidbench: cannot write %s.json\n", stem.c_str());
  }
  return oc;
}

// Metric names declared under `section` ("end_to_end", "per_layer") in a
// BENCHMARK.json.
std::set<std::string> DeclaredNames(const std::string& text,
                                    const std::string& section) {
  std::set<std::string> names;
  const size_t at = text.find("\"" + section + "\"");
  if (at == std::string::npos) return names;
  const size_t begin = text.find('[', at);
  const size_t end = text.find(']', begin);
  const std::string body = text.substr(begin, end - begin);
  const std::regex name_re("\"name\"\\s*:\\s*\"([^\"]+)\"");
  for (std::sregex_iterator it(body.begin(), body.end(), name_re), last;
       it != last; ++it) {
    names.insert((*it)[1].str());
  }
  return names;
}

int Smoke(const Options& o) {
  std::set<std::string> declared_e2e;
  std::set<std::string> declared_layers;
  if (!o.declared.empty()) {
    std::ifstream f(o.declared);
    std::stringstream ss;
    ss << f.rdbuf();
    declared_e2e = DeclaredNames(ss.str(), "end_to_end");
    declared_layers = DeclaredNames(ss.str(), "per_layer");
    if (declared_e2e.empty() || declared_layers.empty()) {
      std::fprintf(stderr, "rfidbench: no metrics declared in %s\n",
                   o.declared.c_str());
      return 1;
    }
  }
  int bad = 0;
  for (const std::string& w : kWorkloads) {
    RunConfig run = o.run;
    run.workload = w;
    run.seconds = 2;
    run.trace = true;
    const auto t0 = Clock::now();
    const Outcome oc = RunOne(o, run);
    std::vector<std::string> missing;
    for (const std::string& n : declared_e2e) {
      auto it = oc.end_to_end.find(n);
      if (it == oc.end_to_end.end() || !(it->second.value > 0)) {
        missing.push_back(n);
      }
    }
    for (const std::string& n : declared_layers) {
      if (oc.per_layer.count(n) == 0) missing.push_back(n);
    }
    // Undeclared metrics, marked "+", are mismatches too.
    for (const Metrics* printed : {&oc.end_to_end, &oc.per_layer}) {
      const std::set<std::string>& names =
          printed == &oc.end_to_end ? declared_e2e : declared_layers;
      for (const auto& [n, m] : *printed) {
        if (!o.declared.empty() && names.count(n) == 0) {
          missing.push_back("+" + n);
        }
      }
    }
    const bool ok = oc.correct && missing.empty();
    std::printf("%-16s %s attempted=%llu failed=%llu %.1fs", w.c_str(),
                ok ? "ok  " : "FAIL",
                static_cast<unsigned long long>(oc.result.attempted),
                static_cast<unsigned long long>(oc.result.failed),
                SecondsBetween(t0, Clock::now()));
    for (const std::string& n : missing) std::printf(" mismatch:%s", n.c_str());
    std::printf("\n");
    std::fflush(stdout);
    if (!ok) ++bad;
  }
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace rfidbench

int main(int argc, char** argv) {
  using namespace rfidbench;
  const Options o = ParseArgs(argc, argv);
  RefuseEngineToggles();
  if (o.run.smoke) return Smoke(o);
  const Outcome oc = RunOne(o, o.run);
  const WorkloadResult& r = oc.result;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              oc.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              MetricsJson(o.run.trace ? oc.per_layer : oc.end_to_end).c_str());
  return 0;
}
