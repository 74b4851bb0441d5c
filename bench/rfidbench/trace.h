// In-memory span recorder for the traced run. Spans are taken in the
// benchmark's own code around its calls into each layer's public
// functions (QueryRewriter::Rewrite, ParseSql, Planner::Plan,
// CollectRows, the client round trip), so tracing needs no engine
// change. Spans are kept in memory and written at exit as Chrome
// trace-event JSON plus a per-layer self-time summary.
//
// Layers are the repository's modules: rewrite, sql, plan, exec, server,
// ingest, wal. A request's root span is named after the layer that owns
// the whole call ("server" for a remote query, "ingest" for a .feed,
// "wal" for a .checkpoint) or "request" for an embedded query, whose own
// self time is the benchmark's bookkeeping between layer calls.
#ifndef RFIDBENCH_TRACE_H_
#define RFIDBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace rfidbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  uint64_t NewRequest() { return next_request_.fetch_add(1) + 1; }

  /// A span open from construction until End() (or destruction). Inert
  /// when tracing is off.
  class Span {
   public:
    Span(Tracer* tracer, const char* layer, uint64_t request,
         int64_t parent = -1);
    ~Span() { End(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    int64_t id() const { return id_; }
    void set_detail(std::string detail) { detail_ = std::move(detail); }
    /// Closes the span; returns the time it was closed at.
    Clock::time_point End();

   private:
    Tracer* tracer_;
    const char* layer_;
    uint64_t request_;
    int64_t parent_;
    int64_t id_ = -1;
    Clock::time_point start_{};
    std::string detail_;
  };

  /// Records a child whose duration is known but whose interval was not
  /// observed from outside (the server's own execution time): it is
  /// placed to end where its parent ended.
  void RecordReported(const char* layer, uint64_t request, int64_t parent,
                      Clock::time_point parent_end, double duration_ms,
                      std::string detail);

  /// Named counters accumulated by the workloads (operator rows, cache
  /// outcomes); summed, maxed, or kept as samples for a median.
  void Add(const std::string& name, double v);
  void Max(const std::string& name, double v);
  void Sample(const std::string& name, double v);
  double Sum(const std::string& name) const;
  std::map<std::string, double> Sums() const;
  double MaxOf(const std::string& name) const;
  std::vector<double> Samples(const std::string& name) const;

  /// One request: its root span and the self time (span duration minus
  /// its children's) it spent in each layer.
  struct Request {
    std::string root;    // root span's layer
    std::string detail;  // root span's detail (template, cache outcome)
    double total_ms = 0;
    std::map<std::string, double> self_ms;
  };
  std::vector<Request> Requests() const;

  struct LayerSummary {
    uint64_t requests = 0;
    double request_ms_total = 0;  // sum of root span durations
    struct Layer {
      uint64_t requests = 0;  // requests with self time in this layer
      double self_ms_sum = 0;
      double self_ms_p50 = 0;  // over those requests
      double share_pct = 0;    // of request_ms_total
    };
    std::map<std::string, Layer> layers;
  };
  static LayerSummary Summarize(const std::vector<Request>& requests);

  /// Writes the spans as Chrome trace-event JSON.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Record {
    std::string layer;
    double start_us = 0;
    double end_us = 0;
    int64_t id = 0;
    int64_t parent = -1;
    uint64_t request = 0;
    uint64_t thread = 0;
    std::string detail;
  };

  int64_t NewSpanId() { return next_span_.fetch_add(1); }
  double Us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  void Push(Record r);

  const bool enabled_;
  const Clock::time_point origin_;
  std::atomic<uint64_t> next_request_{0};
  std::atomic<int64_t> next_span_{0};

  mutable std::mutex mu_;
  std::vector<Record> spans_;                      // guarded by mu_
  std::map<std::string, double> sums_;             // guarded by mu_
  std::map<std::string, double> maxes_;            // guarded by mu_
  std::map<std::string, std::vector<double>> samples_;  // guarded by mu_
};

}  // namespace rfidbench

#endif  // RFIDBENCH_TRACE_H_
