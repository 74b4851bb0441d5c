#include "exec/parallel.h"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/sync.h"

namespace rfid {

namespace {

int HardwareDop() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

constexpr int kMaxPoolThreads = 64;
constexpr uint64_t kDefaultMinParallelRows = 8192;

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  long parsed = atol(v);
  return parsed <= 0 ? fallback : static_cast<int>(parsed);
}

ParallelPolicy DefaultPolicy() {
  ParallelPolicy p;
  p.max_dop = std::min(kMaxPoolThreads, EnvInt("RFID_MAX_DOP", HardwareDop()));
  p.min_parallel_rows = kDefaultMinParallelRows;
  return p;
}

// Test/bench override: max_dop == 0 means "use defaults".
std::atomic<int> g_override_max_dop{0};
std::atomic<uint64_t> g_override_min_rows{0};

// Lazily-started, never-destroyed worker pool. Threads block on the queue
// condition variable when idle; the pool grows on demand (EnsureThreads)
// up to kMaxPoolThreads so DOP-sweep benchmarks can oversubscribe a small
// host. Leaky-singleton on purpose: reachable from a static, so LSan does
// not flag it, and no destructor ever races process teardown.
class WorkerPool {
 public:
  static WorkerPool* Global() {
    static WorkerPool* pool = new WorkerPool();
    return pool;
  }

  void EnsureThreads(int n) {
    n = std::min(n, kMaxPoolThreads);
    MutexLock lock(&mu_);
    while (static_cast<int>(num_threads_) < n) {
      std::thread(&WorkerPool::WorkerLoop, this).detach();
      ++num_threads_;
    }
  }

  void Submit(std::function<void()> task) {
    {
      MutexLock lock(&mu_);
      queue_.push_back(std::move(task));
    }
    cv_.NotifyOne();
  }

 private:
  WorkerPool() = default;

  void WorkerLoop() {
    while (true) {
      std::function<void()> task;
      {
        MutexLock lock(&mu_);
        while (queue_.empty()) cv_.Wait(lock);
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  Mutex mu_{LockRank::kWorkerPool};
  CondVar cv_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  size_t num_threads_ GUARDED_BY(mu_) = 0;
};

}  // namespace

ParallelPolicy CurrentParallelPolicy() {
  int max_dop = g_override_max_dop.load(std::memory_order_relaxed);
  if (max_dop > 0) {
    return {std::min(max_dop, kMaxPoolThreads),
            g_override_min_rows.load(std::memory_order_relaxed)};
  }
  static const ParallelPolicy defaults = DefaultPolicy();
  return defaults;
}

void SetParallelPolicyForTest(int max_dop, uint64_t min_parallel_rows) {
  g_override_min_rows.store(min_parallel_rows, std::memory_order_relaxed);
  g_override_max_dop.store(max_dop, std::memory_order_relaxed);
}

int ChooseDop(double estimated_rows) {
  // A thread-local injector means a deterministic fail-at-step sweep is
  // running; parallel workers carry no injector, so going parallel would
  // silently change which steps the sweep crosses. Stay serial.
  if (FaultInjectionActive()) return 1;
  ParallelPolicy p = CurrentParallelPolicy();
  if (p.max_dop <= 1) return 1;
  if (estimated_rows < static_cast<double>(p.min_parallel_rows)) return 1;
  // Give every worker at least half a threshold's worth of rows so tiny
  // inputs do not fan out to idle workers.
  double per_worker =
      std::max(1.0, static_cast<double>(p.min_parallel_rows) / 2.0);
  double workers = estimated_rows / per_worker;
  int dop = workers >= static_cast<double>(p.max_dop)
                ? p.max_dop
                : std::max(1, static_cast<int>(workers));
  return dop;
}

Status ParallelRun(int dop, const std::function<Status(int)>& fn) {
  if (dop <= 1) return fn(0);
  WorkerPool* pool = WorkerPool::Global();
  pool->EnsureThreads(dop - 1);

  std::vector<Status> statuses(static_cast<size_t>(dop), Status::OK());
  // Per-call completion latch. kLeaf: held only for the counter update,
  // never across another acquisition (fn runs outside the lock; workers
  // write disjoint statuses slots before taking it).
  Mutex mu{LockRank::kLeaf};
  CondVar done_cv;
  int remaining = dop - 1;

  for (int w = 1; w < dop; ++w) {
    pool->Submit([&, w]() {
      Status st = fn(w);
      statuses[static_cast<size_t>(w)] = std::move(st);
      // Notify while still holding mu: once the coordinator can observe
      // remaining == 0 it returns and destroys mu and done_cv, so an
      // unlocked notify would race that destruction.
      MutexLock lock(&mu);
      if (--remaining == 0) done_cv.NotifyOne();
    });
  }
  statuses[0] = fn(0);
  {
    MutexLock lock(&mu);
    while (remaining != 0) done_cv.Wait(lock);
  }
  // Lowest worker id wins so the surfaced error does not depend on
  // scheduling (all workers typically trip the same guardrail anyway).
  for (Status& st : statuses) {
    if (!st.ok()) return std::move(st);
  }
  return Status::OK();
}

}  // namespace rfid
