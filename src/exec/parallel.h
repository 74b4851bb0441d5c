// Intra-query parallelism: a process-wide worker pool, morsel-driven work
// distribution, and the policy the planner uses to pick a degree of
// parallelism (DOP).
//
// Execution model (morsel-driven, in the spirit of HyPer's scheduler):
// the query's coordinating thread runs the operator tree as usual; the
// one parallel operator, ParallelTableScanOp, fans work out to the pool
// with ParallelRun and gathers results *in deterministic order* before
// streaming them to its parent. Sorts, windows and joins always run
// serially (DESIGN.md §8 records why). Workers claim fixed-size morsels from a MorselQueue (an
// atomic cursor, so claiming is wait-free) and write results into
// per-morsel slots, which makes the merged output independent of thread
// scheduling: parallel plans are bit-identical to serial ones.
//
// Threading contract:
//  - ParallelRun may only be called from a query's coordinating thread,
//    never from inside a pool task (tasks must not fan out again), so
//    queued tasks never wait on each other and the pool cannot deadlock.
//  - Worker closures may evaluate bound expressions (immutable once
//    bound), read table storage below the query's watermark, and charge
//    memory through Operator::ChargeMemory / ExecContext::ChargeMemory
//    (both atomic). They must check cancellation per morsel via
//    Operator::TickCancel so guardrail trips stop a parallel pipeline as
//    reliably as a serial one.
//  - Fault injection is thread-local; ChooseDop returns 1 while an
//    injector is installed so fail-at-step sweeps keep their exact
//    serial step ordering.
#ifndef RFID_EXEC_PARALLEL_H_
#define RFID_EXEC_PARALLEL_H_

#include <atomic>
#include <cstdint>
#include <functional>

#include "common/status.h"

namespace rfid {

/// Planner policy for parallel execution, resolved once from the
/// environment (RFID_MAX_DOP) and hardware concurrency; overridable for
/// tests and DOP-sweep benchmarks.
struct ParallelPolicy {
  int max_dop = 1;                  // upper bound on per-operator DOP
  uint64_t min_parallel_rows = 0;   // serial below this estimated row count
};

/// The active policy (env/hardware defaults unless overridden).
ParallelPolicy CurrentParallelPolicy();

/// Overrides the policy process-wide (benchmark DOP sweeps, tests that
/// force parallel paths on small data). Pass max_dop = 0 to restore the
/// environment/hardware defaults.
void SetParallelPolicyForTest(int max_dop, uint64_t min_parallel_rows);

/// Degree of parallelism for a table scan expected to read
/// `estimated_rows` rows: 1 below the policy threshold (and always 1 when
/// a fault injector is installed on this thread), otherwise scaled so
/// each worker gets a meaningful share of rows, capped at the policy's
/// max_dop.
int ChooseDop(double estimated_rows);

/// Runs fn(worker_id) for worker ids [0, dop): shard 0 on the calling
/// thread, the rest on pool threads. Blocks until every shard finishes
/// and returns the lowest-worker-id error (OK if all succeeded). dop <= 1
/// degenerates to a plain call of fn(0).
Status ParallelRun(int dop, const std::function<Status(int)>& fn);

/// Wait-free distribution of [0, total) in fixed-size morsels. Workers
/// Claim() ranges; the morsel index lets them write results into
/// per-morsel slots so gathered output keeps input order regardless of
/// which worker claimed what.
class MorselQueue {
 public:
  MorselQueue(uint64_t total, uint64_t morsel_size)
      : total_(total),
        morsel_size_(morsel_size == 0 ? 1 : morsel_size),
        num_morsels_((total + morsel_size_ - 1) / morsel_size_) {}

  /// Claims the next unclaimed morsel; false when all are claimed.
  bool Claim(uint64_t* begin, uint64_t* end, uint64_t* morsel) {
    uint64_t m = next_.fetch_add(1, std::memory_order_relaxed);
    if (m >= num_morsels_) return false;
    *morsel = m;
    *begin = m * morsel_size_;
    *end = std::min(total_, *begin + morsel_size_);
    return true;
  }

  uint64_t num_morsels() const { return num_morsels_; }

 private:
  uint64_t total_;
  uint64_t morsel_size_;
  uint64_t num_morsels_;
  std::atomic<uint64_t> next_{0};
};

/// Scan morsel granularity, aligned with RowStore segments so a morsel
/// never straddles a segment boundary (rows of one morsel are contiguous
/// in memory and never move under a concurrent ingest writer).
inline constexpr uint64_t kScanMorselRows = 2048;

}  // namespace rfid

#endif  // RFID_EXEC_PARALLEL_H_
