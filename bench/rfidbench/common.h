// Shared pieces of rfidbench: run configuration, the per-run
// result every workload fills in, statistics, result hashing, seeded
// arrival schedules, and process-level measurements (peak RSS).
#ifndef RFIDBENCH_COMMON_H_
#define RFIDBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "storage/row_store.h"
#include "trace.h"

namespace rfidbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;     // tiny data, short phases (the ctest smoke run)
  std::string work_dir;   // working files (WAL directories, references)
};

/// Set-up runs this many times per run and setup_s is the median; the
/// last set-up is the one measured.
inline int SetupRepetitions(const RunConfig& config) {
  return config.smoke ? 1 : 3;
}

/// A metric value with its unit, printed by name.
struct Metric {
  double value = 0;
  std::string unit;
};

/// Everything one workload run reports. Latencies are those of the
/// measured phase only; set-up is timed once per repetition.
struct WorkloadResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // errors, refusals and wrong results
  std::vector<std::string> failure_samples;  // first few messages
  std::vector<std::string> checks;           // correctness checks run

  std::vector<double> setup_s;       // one entry per set-up repetition
  std::vector<double> latencies_ms;  // query latencies, measured phase
  std::vector<std::string> labels;   // per latency: the query it timed
  std::vector<bool> traced;          // per latency: a traced request
  double measured_s = 0;             // measured phase, first send to last reply
  double tail_percentile = 0.75;     // the workload's lat_tail_ms level
  double peak_rss_mb = 0;            // VmHWM over the measured phase

  /// How late the load generator issued each request: for an open loop
  /// the send time minus the due time while a connection was free; for
  /// a closed loop the gap between one reply and the next send.
  std::vector<double> gen_lag_ms;

  /// Workload-specific end-to-end metrics (ingest latency, recovery),
  /// written to the result file but not part of the common metric set.
  std::map<std::string, Metric> extra;
  /// Free-form facts recorded with the result (WAL filesystem, rows).
  std::map<std::string, std::string> facts;

  void Fail(const std::string& what);
  void AddLatency(double ms, std::string label, bool was_traced);
};

/// Linear-interpolation percentile (q in [0, 1]) of unsorted samples;
/// 0 for an empty sample.
double Percentile(std::vector<double> v, double q);

/// Order-insensitive hash of a result set: rows hash by value type and
/// bit pattern, then the sorted row hashes are folded. Ties in ORDER BY
/// keys may legally permute rows, so order is not part of the check.
uint64_t HashRows(const std::vector<rfid::Row>& rows);

/// The naive rewrite's answers (name -> HashRows) for a workload's
/// inputs. They depend only on this build and the pinned inputs, so the
/// first run in a checkout computes them with `compute` and stores them
/// under <work_dir>/refs; later runs of the same binary reuse them. The
/// key covers the binary's bytes, the workload, and `inputs`.
std::map<std::string, uint64_t> NaiveReferences(
    const RunConfig& config, const std::string& inputs,
    const std::function<std::map<std::string, uint64_t>()>& compute);

/// Arrival offsets (seconds from phase start) of `count` requests of a
/// Poisson process conditioned on `count` arrivals in [0, span]: sorted
/// uniform draws. Fixing the count keeps the offered load identical on
/// every seed while the spacing stays Poisson-like.
std::vector<double> PoissonArrivals(std::mt19937_64* rng, size_t count,
                                    double span);

/// Draws ranks 0..n-1 with probability proportional to 1 / (rank + 1).
class ZipfSampler {
 public:
  explicit ZipfSampler(size_t n);
  size_t Next(std::mt19937_64* rng) const;

 private:
  std::vector<double> cdf_;
};

/// Resets the kernel's peak-RSS mark to the current RSS (after returning
/// freed heap to the OS), so a later PeakRssMb() covers only what runs in
/// between. Falls back to the process-lifetime peak where the reset is
/// unavailable.
void ResetPeakRss();
double PeakRssMb();

/// Filesystem type name of the directory holding `path` ("ext4", ...).
std::string FilesystemName(const std::string& path);

/// Adds one executed operator to the traced counters: its output rows
/// under exec.scan_rows / sort_rows / window_rows / join_rows by kind,
/// its dop to plan.max_dop and its memory peak to exec.op_peak_mem_mb.
void CountOperator(const std::string& name, uint64_t rows, int dop,
                   uint64_t mem_bytes, Tracer* tracer);

/// Terminates the run: set-up failures leave nothing to measure.
[[noreturn]] void Die(const std::string& what);

// Workload entry points (analytic.cc, remote.cc).
void RunAnalytic(const RunConfig& config, Tracer* tracer, WorkloadResult* out);
void RunEpcLookup(const RunConfig& config, Tracer* tracer, WorkloadResult* out);
void RunLiveIngest(const RunConfig& config, Tracer* tracer,
                   WorkloadResult* out);

}  // namespace rfidbench

#endif  // RFIDBENCH_COMMON_H_
