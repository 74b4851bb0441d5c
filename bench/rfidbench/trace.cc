#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "common.h"
#include "json.h"

namespace rfidbench {

namespace {
uint64_t ThreadIndex() {
  static std::atomic<uint64_t> next{0};
  thread_local uint64_t index = next.fetch_add(1) + 1;
  return index;
}
}  // namespace

Tracer::Span::Span(Tracer* tracer, const char* layer, uint64_t request,
                   int64_t parent)
    : tracer_(tracer), layer_(layer), request_(request), parent_(parent) {
  if (!tracer_->enabled()) return;
  id_ = tracer_->NewSpanId();
  start_ = Clock::now();
}

Tracer::Clock::time_point Tracer::Span::End() {
  const Clock::time_point end = Clock::now();
  if (id_ < 0 || tracer_ == nullptr) return end;
  tracer_->Push(Record{layer_, tracer_->Us(start_), tracer_->Us(end), id_,
                       parent_, request_, ThreadIndex(), std::move(detail_)});
  tracer_ = nullptr;
  return end;
}

void Tracer::RecordReported(const char* layer, uint64_t request, int64_t parent,
                            Clock::time_point parent_end, double duration_ms,
                            std::string detail) {
  if (!enabled_) return;
  const double end = Us(parent_end);
  Push(Record{layer, end - duration_ms * 1000.0, end, NewSpanId(), parent,
              request, ThreadIndex(), std::move(detail)});
}

void Tracer::Push(Record r) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(r));
}

void Tracer::Add(const std::string& name, double v) {
  std::lock_guard<std::mutex> lock(mu_);
  sums_[name] += v;
}

void Tracer::Max(const std::string& name, double v) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = maxes_.find(name);
  if (it == maxes_.end() || v > it->second) maxes_[name] = v;
}

void Tracer::Sample(const std::string& name, double v) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_[name].push_back(v);
}

double Tracer::Sum(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sums_.find(name);
  return it == sums_.end() ? 0 : it->second;
}

std::map<std::string, double> Tracer::Sums() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sums_;
}

double Tracer::MaxOf(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = maxes_.find(name);
  return it == maxes_.end() ? 0 : it->second;
}

std::vector<double> Tracer::Samples(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = samples_.find(name);
  return it == samples_.end() ? std::vector<double>{} : it->second;
}

std::vector<Tracer::Request> Tracer::Requests() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<int64_t, double> child_us;  // span id -> children time
  for (const Record& r : spans_) {
    if (r.parent >= 0) child_us[r.parent] += r.end_us - r.start_us;
  }
  std::map<uint64_t, Request> by_id;
  for (const Record& r : spans_) {
    const double dur = r.end_us - r.start_us;
    auto it = child_us.find(r.id);
    const double self = dur - (it == child_us.end() ? 0 : it->second);
    Request& req = by_id[r.request];
    req.self_ms[r.layer] += self / 1000.0;
    if (r.parent < 0) {
      req.root = r.layer;
      req.detail = r.detail;
      req.total_ms = dur / 1000.0;
    }
  }
  std::vector<Request> out;
  out.reserve(by_id.size());
  for (auto& [id, req] : by_id) out.push_back(std::move(req));
  return out;
}

Tracer::LayerSummary Tracer::Summarize(const std::vector<Request>& requests) {
  LayerSummary out;
  std::map<std::string, std::vector<double>> self_by_layer;
  for (const Request& req : requests) {
    ++out.requests;
    out.request_ms_total += req.total_ms;
    for (const auto& [layer, ms] : req.self_ms) {
      self_by_layer[layer].push_back(ms);
    }
  }
  for (const auto& [layer, values] : self_by_layer) {
    LayerSummary::Layer& l = out.layers[layer];
    l.requests = values.size();
    for (double v : values) l.self_ms_sum += v;
    l.self_ms_p50 = Percentile(values, 0.5);
    l.share_pct = out.request_ms_total > 0
                      ? 100.0 * l.self_ms_sum / out.request_ms_total
                      : 0;
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    std::string line =
        "{\"name\": " + JsonStr(r.layer) + ", \"cat\": " + JsonStr(r.layer) +
        ", \"ph\": \"X\", \"pid\": 1, \"tid\": " +
        std::to_string(r.thread) + ", \"ts\": " + JsonNum(r.start_us) +
        ", \"dur\": " + JsonNum(r.end_us - r.start_us) +
        ", \"args\": {\"request\": " + std::to_string(r.request) +
        ", \"id\": " + std::to_string(r.id) +
        ", \"parent\": " + std::to_string(r.parent) +
        ", \"detail\": " + JsonStr(r.detail) + "}}";
    if (i + 1 < spans_.size()) line += ",";
    std::fputs((line + "\n").c_str(), f);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace rfidbench
