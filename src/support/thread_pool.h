// Fixed-size thread pool for the sweep drivers (work-stealing-free).
//
// Design constraints, in order:
//  1. Determinism: callers get results keyed by job *index*; the pool never
//     reorders or merges anything itself. Combined with per-index seed
//     derivation (support/rng.h) every aggregate in this library is
//     bitwise-identical regardless of the thread count.
//  2. No oversubscription: one process-wide pool (ThreadPool::global()),
//     sized once from ETHSM_THREADS or std::thread::hardware_concurrency().
//  3. No deadlock on nesting: a parallel region entered from inside a pool
//     job runs inline on that thread (the outer region already owns the
//     hardware). So a thread only ever helps another region from outside
//     any job -- never while it holds thread_local scratch (block-tree
//     arenas, solver and kernel buffers).
//
// Several regions can be live at once: top-level calls from different
// threads, and the compute regions that the tasks of a coordinator region
// (for_each_task: a study's cells) open concurrently. Each region is a
// single atomic ticket counter over [0, n): dynamic load balancing without
// work stealing or per-task queues. An idle worker takes tickets from any
// live compute region, oldest first; a thread waiting for its own region's
// stragglers runs tickets of other live compute regions meanwhile. Which
// thread runs a job is nondeterministic; what the job computes is not.

#ifndef ETHSM_SUPPORT_THREAD_POOL_H
#define ETHSM_SUPPORT_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ethsm::support {

namespace metrics {
class Scope;
}  // namespace metrics

class ThreadPool {
 public:
  /// Creates a pool with the given total concurrency (caller thread included,
  /// so `threads == 1` means "no worker threads, run everything inline").
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency of this pool (>= 1, caller thread included).
  [[nodiscard]] unsigned concurrency() const noexcept { return concurrency_; }

  /// Runs fn(i) exactly once for every i in [0, n), distributing indices over
  /// the pool plus the calling thread; blocks until all n jobs finished.
  /// The first exception thrown by any job is rethrown on the caller after
  /// the region drains. Reentrant calls (from inside a pool job) and pools
  /// with concurrency 1 execute serially inline. Concurrent top-level calls
  /// from different threads are safe, and the workers assist every one of
  /// them.
  void for_each_index(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Runs task(i) exactly once for every i in [0, n) as a *coordinator*
  /// region: tasks that open compute regions of their own (a study's cells).
  /// A task is not a pool job, so the regions it opens go to the pool. The
  /// caller runs tasks one after another, and the region is published
  /// without waking any worker: a worker takes a task only when it is awake
  /// for compute and finds no compute ticket left. Tasks that open no
  /// compute (a resumed study) therefore all run on the caller, in index
  /// order. Errors, inline cases and blocking are as in for_each_index.
  void for_each_task(std::size_t n,
                     const std::function<void(std::size_t)>& task);

  /// Concurrency the global pool is created with: the ETHSM_THREADS
  /// environment variable when set to a positive integer, otherwise
  /// std::thread::hardware_concurrency() (>= 1).
  [[nodiscard]] static unsigned default_concurrency();

  /// The process-wide pool used by parallel_for / parallel_map.
  [[nodiscard]] static ThreadPool& global();

  /// Recreates the global pool with a new concurrency. Intended for tests and
  /// benchmarks (determinism across thread counts); must not be called while
  /// a parallel region is running.
  static void set_global_concurrency(unsigned threads);

 private:
  /// One parallel region's state, heap-owned and shared between the caller
  /// and every thread that claimed from it. A thread holding a stale
  /// pointer finds the ticket counter exhausted and claims nothing -- the
  /// shared_ptr keeps the job callable alive until the last one lets go.
  struct Region {
    std::function<void(std::size_t)> fn;
    std::size_t size = 0;
    bool coordinator = false;  ///< for_each_task: tasks, not compute jobs
    metrics::Scope* scope = nullptr;  ///< the opener's, installed per job
    std::atomic<std::size_t> next_index{0};
    std::size_t remaining = 0;  ///< jobs not yet finished (under pool mutex_)
    std::exception_ptr first_error;  ///< under pool mutex_

    [[nodiscard]] bool has_tickets() const noexcept {
      return next_index.load(std::memory_order_relaxed) < size;
    }
    /// Tickets a thread drains per claim: all of a compute region's, one
    /// coordinator task at a time (then it looks for compute again).
    [[nodiscard]] std::size_t claim_size() const noexcept {
      return coordinator ? 1 : static_cast<std::size_t>(-1);
    }
  };

  void worker_loop();
  /// Both public entry points: inline when n <= 1, on one-thread pools and
  /// inside a pool job; otherwise a published region.
  void run_region(std::size_t n, const std::function<void(std::size_t)>& fn,
                  bool coordinator);
  /// The oldest live region of the given kind with unclaimed tickets, or
  /// nullptr. Caller holds mutex_.
  [[nodiscard]] std::shared_ptr<Region> claimable_locked(
      bool coordinator) const;
  /// Claims and runs up to `max_jobs` tickets of `region` on the current
  /// thread; returns the number of jobs it completed. Call without mutex_.
  std::size_t drain(Region& region, std::size_t max_jobs);
  /// Books `completed` jobs of `region` as finished. Caller holds mutex_.
  void retire_locked(Region& region, std::size_t completed);

  unsigned concurrency_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  /// Signals a compute region published, a region finished, or shutdown.
  std::condition_variable cv_;
  /// Published, unfinished regions, oldest first (under mutex_).
  std::vector<std::shared_ptr<Region>> live_;
  bool stop_ = false;
};

}  // namespace ethsm::support

#endif  // ETHSM_SUPPORT_THREAD_POOL_H
