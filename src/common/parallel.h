// Deterministic fork-join parallelism shared by synopsis construction and
// cross-segment query execution.
//
// Both helpers run fn(0) .. fn(n-1) with workers pulling indices from a
// shared atomic counter; each index is executed exactly once and callers
// write results to fixed per-index slots, so output is identical for any
// thread count or scheduling.
//
//  * ParallelFor spawns transient threads — right for build-time work
//    (milliseconds and up) where thread start-up cost is noise.
//  * TaskPool keeps a set of persistent workers parked on a condition
//    variable — right for query-time fan-out, where a microsecond-scale
//    execution cannot afford thread creation per call.
#ifndef PAIRWISEHIST_COMMON_PARALLEL_H_
#define PAIRWISEHIST_COMMON_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace pairwisehist {

/// The number of workers ParallelFor(n, nthreads, ...) runs: `nthreads`
/// (0 = one per hardware core) capped at n, and at least 1.
unsigned ParallelWorkers(size_t n, unsigned nthreads);

/// Runs fn(i, worker) for every i in [0, n) on ParallelWorkers(n, nthreads)
/// transient threads (1 = serial on the calling thread). `worker` is the
/// running thread's slot in [0, ParallelWorkers(n, nthreads)), so callers
/// can hand each worker its own scratch. Blocks until every index has run.
/// `fn` must be safe to call concurrently for distinct indices and workers
/// and must not throw.
void ParallelFor(size_t n, unsigned nthreads,
                 const std::function<void(size_t i, unsigned worker)>& fn);

/// A small pool of persistent worker threads for repeated low-latency
/// fork-join dispatch. One job runs at a time; if Run is called while
/// another job is in flight (or the pool was created with a single
/// thread), the caller simply executes the whole range itself — results
/// are index-deterministic either way.
class TaskPool {
 public:
  /// `nthreads` counts the calling thread: the pool spawns nthreads - 1
  /// workers (0 = one per hardware core).
  explicit TaskPool(unsigned nthreads);
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Blocks until fn(0) .. fn(n-1) have all executed. The calling thread
  /// participates in the work.
  void Run(size_t n, const std::function<void(size_t)>& fn);

  unsigned num_threads() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

 private:
  /// One dispatched range. Each job owns its counters so a worker that
  /// oversleeps a generation can never corrupt a newer job.
  struct Job {
    const std::function<void(size_t)>* fn = nullptr;
    size_t n = 0;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
  };

  void WorkerLoop();
  void RunJob(const std::shared_ptr<Job>& job);

  std::mutex mu_;
  std::condition_variable cv_;       // workers wait for a new generation
  std::condition_variable done_cv_;  // Run waits for completion
  uint64_t generation_ = 0;
  bool stop_ = false;
  std::shared_ptr<Job> job_;

  std::mutex run_mu_;  // serializes concurrent Run callers
  std::vector<std::thread> workers_;
};

}  // namespace pairwisehist

#endif  // PAIRWISEHIST_COMMON_PARALLEL_H_
