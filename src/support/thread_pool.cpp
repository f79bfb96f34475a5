#include "support/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <optional>

#include "support/check.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace ethsm::support {

namespace {

/// True on threads currently executing a pool job; nested regions run inline.
thread_local bool t_inside_pool_job = false;

std::mutex g_global_mutex;
std::unique_ptr<ThreadPool> g_global_pool;  // guarded by g_global_mutex

/// Write-only observability tap. Jobs drained through compute regions are
/// counted and timed; the inline paths (n == 1, single-thread pools, nested
/// regions) bypass the pool machinery and are deliberately not counted --
/// the metrics describe pool work, not total work. Coordinator regions and
/// their tasks are not counted either. Queue depth is the remaining-ticket
/// estimate of the most recently touched compute region.
struct PoolMetrics {
  metrics::Counter& tasks;
  metrics::Counter& regions;
  metrics::Histogram& task_seconds;
  metrics::Gauge& active_regions;
  metrics::Gauge& queue_depth;

  static PoolMetrics& instance() {
    auto& reg = metrics::registry();
    static PoolMetrics m{
        reg.counter("ethsm_pool_tasks_total",
                    "Tasks executed through thread-pool regions"),
        reg.counter("ethsm_pool_regions_total",
                    "Parallel regions run on the thread pool"),
        reg.histogram("ethsm_pool_task_seconds",
                      metrics::Histogram::latency_bounds_seconds(),
                      "Latency of individual pool tasks"),
        reg.gauge("ethsm_pool_active_regions",
                  "Parallel regions currently executing"),
        reg.gauge("ethsm_pool_queue_depth",
                  "Remaining tickets in the most recent region"),
    };
    return m;
  }
};

}  // namespace

ThreadPool::ThreadPool(unsigned threads)
    : concurrency_(threads == 0 ? 1 : threads) {
  if constexpr (metrics::kEnabled) {
    // Register the pool metric family up front so GET /metrics and
    // --metrics-out list it (at zero) even on machines where every region
    // takes the single-thread inline path.
    (void)PoolMetrics::instance();
  }
  workers_.reserve(concurrency_ - 1);
  for (unsigned i = 0; i + 1 < concurrency_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::size_t ThreadPool::drain(Region& region, std::size_t max_jobs) {
  // A coordinator task is not a pool job: the compute regions it opens go to
  // the pool. A compute job is one, so regions nested in it run inline.
  const bool was_inside = t_inside_pool_job;
  t_inside_pool_job = !region.coordinator;
  const metrics::Scope::Install scope(region.scope);
  // Only compute jobs are pool work in the metrics: a coordinator task
  // mostly waits inside its own regions, whose jobs are counted already.
  const bool measured = metrics::kEnabled && !region.coordinator;
  std::size_t completed = 0;
  while (completed < max_jobs) {
    const std::size_t i =
        region.next_index.fetch_add(1, std::memory_order_relaxed);
    if (i >= region.size) break;
    std::chrono::steady_clock::time_point task_start;
    if (measured) {
      PoolMetrics::instance().queue_depth.set(
          static_cast<std::int64_t>(region.size - i - 1));
      task_start = std::chrono::steady_clock::now();
    }
    try {
      region.fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!region.first_error) region.first_error = std::current_exception();
    }
    if (measured) {
      PoolMetrics& m = PoolMetrics::instance();
      m.tasks.add();
      m.task_seconds.observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        task_start)
              .count());
    }
    ++completed;
  }
  t_inside_pool_job = was_inside;
  return completed;
}

std::shared_ptr<ThreadPool::Region> ThreadPool::claimable_locked(
    bool coordinator) const {
  for (const std::shared_ptr<Region>& region : live_) {
    if (region->coordinator == coordinator && region->has_tickets()) {
      return region;
    }
  }
  return nullptr;
}

void ThreadPool::retire_locked(Region& region, std::size_t completed) {
  if (completed == 0) return;
  region.remaining -= completed;
  if (region.remaining == 0) cv_.notify_all();
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    // Sleep until there is compute to claim; coordinator regions never wake
    // a worker by themselves.
    std::shared_ptr<Region> region;
    cv_.wait(lock, [&] {
      return stop_ || (region = claimable_locked(false)) != nullptr;
    });
    if (stop_) return;
    // Awake: drain compute, and once none is left take coordinator tasks
    // one at a time, re-checking for compute after each.
    while (region != nullptr) {
      lock.unlock();
      const std::size_t completed = drain(*region, region->claim_size());
      lock.lock();
      retire_locked(*region, completed);
      region = claimable_locked(false);
      if (region == nullptr) region = claimable_locked(true);
    }
  }
}

void ThreadPool::run_region(std::size_t n,
                            const std::function<void(std::size_t)>& fn,
                            bool coordinator) {
  if (n == 0) return;
  if (n == 1 || concurrency_ == 1 || t_inside_pool_job) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::optional<trace::Span> span;
  if (!coordinator) {
    span.emplace("pool.region");
    if constexpr (metrics::kEnabled) {
      PoolMetrics& m = PoolMetrics::instance();
      m.regions.add();
      m.active_regions.add(1);
    }
  }
  auto region = std::make_shared<Region>();
  region->fn = fn;  // copied so stragglers can never observe a dead callable
  region->size = n;
  region->coordinator = coordinator;
  region->scope = metrics::Scope::current();
  region->remaining = n;
  std::unique_lock<std::mutex> lock(mutex_);
  live_.push_back(region);
  if (!coordinator) cv_.notify_all();

  // The caller claims its own tickets first (coordinator tasks one at a
  // time, so a task finishing late still leaves the rest to idle workers).
  while (region->has_tickets()) {
    lock.unlock();
    const std::size_t completed = drain(*region, region->claim_size());
    lock.lock();
    retire_locked(*region, completed);
  }
  // Then, until its stragglers finish, it helps other live compute regions
  // one ticket at a time. It is outside any job here (nested regions run
  // inline), so the jobs it borrows cannot collide with its own scratch.
  while (region->remaining != 0) {
    if (std::shared_ptr<Region> other = claimable_locked(false)) {
      lock.unlock();
      const std::size_t completed = drain(*other, 1);
      lock.lock();
      retire_locked(*other, completed);
      continue;
    }
    cv_.wait(lock, [&] {
      return region->remaining == 0 || claimable_locked(false) != nullptr;
    });
  }
  live_.erase(std::find(live_.begin(), live_.end(), region));
  const std::exception_ptr error = region->first_error;
  lock.unlock();

  if (!coordinator) {
    if constexpr (metrics::kEnabled) {
      PoolMetrics& m = PoolMetrics::instance();
      m.active_regions.sub(1);
      m.queue_depth.set(0);
    }
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::for_each_index(std::size_t n,
                                const std::function<void(std::size_t)>& fn) {
  run_region(n, fn, /*coordinator=*/false);
}

void ThreadPool::for_each_task(std::size_t n,
                               const std::function<void(std::size_t)>& task) {
  run_region(n, task, /*coordinator=*/true);
}

unsigned ThreadPool::default_concurrency() {
  if (const char* env = std::getenv("ETHSM_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0) {
      return static_cast<unsigned>(parsed);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  if (!g_global_pool) {
    g_global_pool = std::make_unique<ThreadPool>(default_concurrency());
  }
  return *g_global_pool;
}

void ThreadPool::set_global_concurrency(unsigned threads) {
  ETHSM_EXPECTS(threads > 0, "thread pool needs at least the caller thread");
  std::lock_guard<std::mutex> lock(g_global_mutex);
  g_global_pool = std::make_unique<ThreadPool>(threads);
}

}  // namespace ethsm::support
