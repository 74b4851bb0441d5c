// The embedded analytic workloads: the paper's q1 / q2 / q2' templates
// at fixed rtime selectivities, rewritten with the `auto` strategy and
// executed in process by one closed-loop client.
//
//  analytic_5rules  40 pallets, all five standard rules: the cleansing
//                   chain (sort, then one window per rule) dominates.
//  analytic_400p    400 pallets, reader rule only (the Fig. 7 set-up):
//                   scans, index range scans, zone maps and parallel
//                   operators carry the cost.
//
// Every result is checked against the naive rewrite's result for the
// same template.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "exec/operator.h"
#include "plan/planner.h"
#include "rewrite/rewriter.h"
#include "rfidgen/anomaly.h"
#include "rfidgen/rfidgen.h"
#include "rfidgen/workload.h"
#include "sql/parser.h"
#include "storage/columnar.h"

namespace rfidbench {

namespace {

using rfid::Database;

struct AnalyticSpec {
  int64_t pallets;
  int rules;
};

AnalyticSpec SpecFor(const RunConfig& config) {
  if (config.workload == "analytic_5rules") return {config.smoke ? 6 : 40, 5};
  return {config.smoke ? 8 : 400, 1};
}

// The mix is nine equally weighted templates: q1, q2 and q2' at 1, 10 and
// 40 % selectivity. Latencies of a fixed mix cluster by template, and a
// percentile is only stable where it falls inside one template's cluster
// rather than between two: with nine, p50 sits in the middle of the fifth
// slowest template's and p80 inside the eighth's.
constexpr double kTailPercentile = 0.80;

struct Template {
  std::string label;  // "q1@10%"
  std::string sql;
};

struct Instance {
  std::unique_ptr<Database> db;
  std::unique_ptr<rfid::CleansingRuleEngine> engine;
  std::vector<Template> templates;
};

// Data generation, anomaly injection (which rebuilds indexes, statistics
// and columnar encodings), rule definition, and template instantiation.
// The generator seeds are pinned so every run queries the same data;
// --seed varies the query order only.
Instance SetUp(const AnalyticSpec& spec) {
  Instance in;
  in.db = std::make_unique<Database>();
  rfid::rfidgen::GeneratorOptions gen;
  gen.seed = 20060912;
  gen.num_pallets = spec.pallets;
  // The paper's proportions at bench scale: the reads table dwarfs the
  // dimension tables (130 sites x 10 locations).
  gen.num_stores = 100;
  gen.num_warehouses = 25;
  gen.num_dcs = 5;
  gen.locations_per_site = 10;
  auto g = rfid::rfidgen::Generate(gen, in.db.get());
  if (!g.ok()) Die("generate: " + g.status().ToString());
  rfid::rfidgen::AnomalyOptions anomalies;
  anomalies.seed = 17;
  anomalies.dirty_fraction = 0.10;
  auto a = rfid::rfidgen::InjectAnomalies(anomalies, in.db.get());
  if (!a.ok()) Die("inject: " + a.status().ToString());

  in.engine = std::make_unique<rfid::CleansingRuleEngine>(in.db.get());
  for (const std::string& def :
       rfid::workload::StandardRuleDefinitions(spec.rules)) {
    rfid::Status st = in.engine->DefineRule(def);
    if (!st.ok()) Die("rule: " + st.ToString());
  }
  for (int q : {1, 2, 3}) {
    for (int pct : {1, 10, 40}) {
      const double frac = pct / 100.0;
      Template t;
      if (q == 1) {
        t.label = "q1@" + std::to_string(pct) + "%";
        t.sql = rfid::workload::Q1(
            rfid::workload::T1ForSelectivity(*in.db, frac));
      } else if (q == 2) {
        t.label = "q2@" + std::to_string(pct) + "%";
        t.sql = rfid::workload::Q2(
            rfid::workload::T2ForSelectivity(*in.db, frac));
      } else {
        t.label = "q2'@" + std::to_string(pct) + "%";
        t.sql = rfid::workload::Q2Prime(
            rfid::workload::T2ForSelectivity(*in.db, frac));
      }
      in.templates.push_back(std::move(t));
    }
  }
  return in;
}

rfid::Result<std::string> Rewrite(const Instance& in, const std::string& sql,
                                  rfid::RewriteStrategy strategy,
                                  size_t* candidates = nullptr,
                                  rfid::RewriteStrategy* chosen = nullptr) {
  rfid::QueryRewriter rewriter(in.db.get(), in.engine.get());
  rfid::RewriteOptions opts;
  opts.strategy = strategy;
  auto info = rewriter.Rewrite(sql, opts);
  if (!info.ok()) return info.status();
  if (candidates != nullptr) *candidates = info->candidates.size();
  if (chosen != nullptr) *chosen = info->chosen;
  return info->sql;
}

// One untraced query: what an embedded caller does.
rfid::Result<std::vector<rfid::Row>> RunPlain(const Instance& in,
                                              const std::string& sql) {
  auto rewritten = Rewrite(in, sql, rfid::RewriteStrategy::kAuto);
  if (!rewritten.ok()) return rewritten.status();
  rfid::ExecContext ctx;
  auto res = rfid::ExecuteSql(*in.db, *rewritten, &ctx);
  if (!res.ok()) return res.status();
  return std::move(res->rows);
}

void WalkOperators(const rfid::Operator& op, Tracer* tracer) {
  CountOperator(op.name(), op.rows_produced(), op.dop(),
                op.memory_peak_bytes(), tracer);
  for (const rfid::Operator* child : op.children()) {
    WalkOperators(*child, tracer);
  }
}

// One traced query: the same work split at each layer's public entry
// point so every layer gets its own span.
rfid::Result<std::vector<rfid::Row>> RunTraced(const Instance& in,
                                               const Template& t,
                                               Tracer* tracer) {
  const uint64_t req = tracer->NewRequest();
  Tracer::Span root(tracer, "request", req);
  root.set_detail(t.label);
  size_t candidates = 0;
  rfid::RewriteStrategy chosen = rfid::RewriteStrategy::kNone;
  Tracer::Span rewrite_span(tracer, "rewrite", req, root.id());
  auto rewritten =
      Rewrite(in, t.sql, rfid::RewriteStrategy::kAuto, &candidates, &chosen);
  rewrite_span.End();
  if (!rewritten.ok()) return rewritten.status();

  Tracer::Span sql_span(tracer, "sql", req, root.id());
  auto stmt = rfid::ParseSql(*rewritten);
  sql_span.End();
  if (!stmt.ok()) return stmt.status();

  rfid::ExecContext ctx;
  Tracer::Span plan_span(tracer, "plan", req, root.id());
  auto plan = rfid::Planner(in.db.get(), &ctx).Plan(**stmt);
  plan_span.End();
  if (!plan.ok()) return plan.status();

  Tracer::Span exec_span(tracer, "exec", req, root.id());
  auto rows = rfid::CollectRows(plan->root.get(), &ctx);
  exec_span.End();
  root.End();
  if (!rows.ok()) return rows.status();

  tracer->Add("rewrite.candidates", static_cast<double>(candidates));
  tracer->Add(
      std::string("rewrite.chosen.") + rfid::RewriteStrategyName(chosen), 1);
  WalkOperators(*plan->root, tracer);
  const double actual = std::max(1.0, static_cast<double>(rows->size()));
  const double estimated = std::max(1.0, plan->estimated_rows);
  tracer->Sample("plan.root_qerror",
                 std::max(actual / estimated, estimated / actual));
  tracer->Add("exec.rows_out", static_cast<double>(rows->size()));
  tracer->Max("exec.peak_mem_mb",
              static_cast<double>(ctx.memory_peak()) / (1 << 20));
  return rows;
}

}  // namespace

void RunAnalytic(const RunConfig& config, Tracer* tracer, WorkloadResult* out) {
  const AnalyticSpec spec = SpecFor(config);
  out->tail_percentile = kTailPercentile;

  Instance in;
  for (int rep = 0; rep < SetupRepetitions(config); ++rep) {
    in = Instance();  // free the previous repetition before building
    const auto t0 = Clock::now();
    in = SetUp(spec);
    out->setup_s.push_back(SecondsBetween(t0, Clock::now()));
  }
  out->facts["case_reads"] =
      std::to_string(in.db->GetTable("caseR")->num_rows());
  out->facts["templates"] = std::to_string(in.templates.size());

  // Untimed warm-up round.
  for (const Template& t : in.templates) {
    auto rows = RunPlain(in, t.sql);
    if (!rows.ok()) Die("warm-up " + t.label + ": " + rows.status().ToString());
  }

  std::mt19937_64 rng(config.seed);
  std::vector<size_t> order(in.templates.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Whole rounds until the phase has run its time and at least six rounds
  // (54 queries, so ten lie beyond p80); traced runs alternate traced and
  // untraced rounds and end on an even count so both halves hold the same
  // templates.
  const size_t min_rounds = config.smoke ? 1 : 6;
  std::vector<std::pair<size_t, uint64_t>> answers;  // template, row hash
  const rfid::ColumnarCounters col0 = rfid::GlobalColumnarCounters();
  ResetPeakRss();
  const auto phase_start = Clock::now();
  auto prev_end = phase_start;
  for (size_t round = 0;; ++round) {
    const bool enough =
        SecondsBetween(phase_start, Clock::now()) >= config.seconds &&
        round >= min_rounds;
    if (enough && (!tracer->enabled() || round % 2 == 0)) break;
    std::shuffle(order.begin(), order.end(), rng);
    const bool traced = tracer->enabled() && round % 2 == 1;
    for (size_t idx : order) {
      const Template& t = in.templates[idx];
      const auto start = Clock::now();
      out->gen_lag_ms.push_back(MsBetween(prev_end, start));
      auto rows = traced ? RunTraced(in, t, tracer) : RunPlain(in, t.sql);
      const auto end = Clock::now();
      ++out->attempted;
      out->AddLatency(MsBetween(start, end), t.label, traced);
      if (rows.ok()) {
        answers.emplace_back(idx, HashRows(*rows));
      } else {
        out->Fail(t.label + ": " + rows.status().ToString());
      }
      prev_end = Clock::now();
    }
  }
  out->measured_s = SecondsBetween(phase_start, prev_end);
  out->peak_rss_mb = PeakRssMb();

  // The oracle, after the phase so it cannot disturb it: every template
  // under the naive rewrite.
  std::string inputs;
  for (const Template& t : in.templates) inputs += t.sql + "\n";
  const std::map<std::string, uint64_t> naive =
      NaiveReferences(config, inputs, [&] {
        std::map<std::string, uint64_t> refs;
        for (const Template& t : in.templates) {
          auto sql = Rewrite(in, t.sql, rfid::RewriteStrategy::kNaive);
          if (!sql.ok()) {
            Die("naive rewrite of " + t.label + ": " + sql.status().ToString());
          }
          auto res = rfid::ExecuteSql(*in.db, *sql);
          if (!res.ok()) {
            Die("naive run of " + t.label + ": " + res.status().ToString());
          }
          refs[t.label] = HashRows(res->rows);
        }
        return refs;
      });
  for (const auto& [idx, hash] : answers) {
    const Template& t = in.templates[idx];
    auto it = naive.find(t.label);
    if (it == naive.end() || it->second != hash) {
      out->Fail(t.label + ": result differs from the naive rewrite");
    }
  }
  out->checks.push_back("every result's row hash equals the naive rewrite's");

  const rfid::ColumnarCounters col1 = rfid::GlobalColumnarCounters();
  tracer->Add("storage.segments_scanned",
              static_cast<double>(col1.segments_scanned -
                                  col0.segments_scanned));
  tracer->Add("storage.segments_skipped",
              static_cast<double>(col1.segments_skipped -
                                  col0.segments_skipped));
}

}  // namespace rfidbench
