#include "common/parallel.h"

#include <algorithm>

namespace pairwisehist {

unsigned ParallelWorkers(size_t n, unsigned nthreads) {
  if (nthreads == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    nthreads = hw > 0 ? hw : 1;
  }
  return static_cast<unsigned>(
      std::max<size_t>(1, std::min<size_t>(nthreads, n)));
}

void ParallelFor(size_t n, unsigned nthreads,
                 const std::function<void(size_t i, unsigned worker)>& fn) {
  if (n == 0) return;
  nthreads = ParallelWorkers(n, nthreads);
  if (nthreads == 1) {
    for (size_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  std::atomic<size_t> next{0};
  auto worker = [&](unsigned slot) {
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      fn(i, slot);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(nthreads - 1);
  for (unsigned t = 1; t < nthreads; ++t) threads.emplace_back(worker, t);
  worker(0);
  for (std::thread& t : threads) t.join();
}

TaskPool::TaskPool(unsigned nthreads) {
  if (nthreads == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    nthreads = hw > 0 ? hw : 1;
  }
  workers_.reserve(nthreads > 0 ? nthreads - 1 : 0);
  for (unsigned t = 0; t + 1 < nthreads; ++t) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void TaskPool::RunJob(const std::shared_ptr<Job>& job) {
  const size_t n = job->n;
  for (;;) {
    size_t i = job->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) break;
    (*job->fn)(i);
    if (job->done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
      std::lock_guard<std::mutex> lock(mu_);
      done_cv_.notify_all();
    }
  }
}

void TaskPool::WorkerLoop() {
  uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&]() { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    // A worker that overslept its generation gets the current job (or an
    // exhausted one): every job carries its own counters, so stale workers
    // can never touch a newer job's indices.
    if (job != nullptr) RunJob(job);
  }
}

void TaskPool::Run(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  // No workers, or another job already in flight: execute the whole range
  // on the calling thread. Correctness does not depend on who runs which
  // index, only that each runs exactly once.
  std::unique_lock<std::mutex> busy(run_mu_, std::try_to_lock);
  if (workers_.empty() || !busy.owns_lock()) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->n = n;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = job;
    ++generation_;
  }
  cv_.notify_all();
  RunJob(job);
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&]() {
      return job->done.load(std::memory_order_acquire) == n;
    });
    job_.reset();
  }
}

}  // namespace pairwisehist
