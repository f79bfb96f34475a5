#include "support/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/thread_pool.h"

namespace ethsm::support {
namespace {

/// Restores the default global pool after each test so the suite's other
/// tests never observe a leftover thread count.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ThreadPool::set_global_concurrency(ThreadPool::default_concurrency());
  }
};

TEST_F(ParallelTest, CoversEveryIndexExactlyOnce) {
  for (unsigned threads : {1u, 2u, 5u}) {
    ThreadPool::set_global_concurrency(threads);
    constexpr std::size_t kJobs = 1000;
    std::vector<std::atomic<int>> hits(kJobs);
    parallel_for(kJobs, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kJobs; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << ", " << threads
                                   << " threads";
    }
  }
}

TEST_F(ParallelTest, MapKeepsResultsAtTheirIndex) {
  ThreadPool::set_global_concurrency(4);
  const auto squares =
      parallel_map(257, [](std::size_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 257u);
  for (std::size_t i = 0; i < squares.size(); ++i) {
    EXPECT_EQ(squares[i], i * i);
  }
}

TEST_F(ParallelTest, ZeroAndOneJobRunInline) {
  ThreadPool::set_global_concurrency(4);
  int calls = 0;
  parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST_F(ParallelTest, PropagatesTheFirstException) {
  ThreadPool::set_global_concurrency(4);
  EXPECT_THROW(
      parallel_for(64,
                   [](std::size_t i) {
                     if (i % 7 == 3) throw std::runtime_error("job failed");
                   }),
      std::runtime_error);
  // The pool must stay usable after a throwing region.
  std::atomic<int> ok{0};
  parallel_for(16, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 16);
}

TEST_F(ParallelTest, NestedRegionsRunInlineWithoutDeadlock) {
  ThreadPool::set_global_concurrency(4);
  std::atomic<int> total{0};
  parallel_for(8, [&](std::size_t) {
    // A parallel region inside a pool job must not dispatch back to the pool
    // (deadlock risk); it runs serially on the current worker.
    parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST_F(ParallelTest, BackToBackRegionsStaySane) {
  // Regression: a worker descheduled between the region wake-up and its
  // first ticket claim must not leak into the next region's accounting
  // (stale-snapshot race). Hammer consecutive tiny regions to give such
  // stragglers every chance to straddle a boundary.
  ThreadPool::set_global_concurrency(4);
  for (std::size_t round = 0; round < 500; ++round) {
    const auto r = parallel_map(
        8, [round](std::size_t i) { return round * 100 + i; });
    ASSERT_EQ(r.size(), 8u);
    for (std::size_t i = 0; i < 8; ++i) {
      ASSERT_EQ(r[i], round * 100 + i) << "round " << round;
    }
  }
}

TEST_F(ParallelTest, ReductionIsIdenticalAcrossThreadCounts) {
  // The library's determinism contract in miniature: map to an index-ordered
  // vector, reduce serially.
  auto reduce = [](unsigned threads) {
    ThreadPool::set_global_concurrency(threads);
    const auto parts = parallel_map(
        100, [](std::size_t i) { return 1.0 / (1.0 + static_cast<double>(i)); });
    return std::accumulate(parts.begin(), parts.end(), 0.0);
  };
  const double serial = reduce(1);
  EXPECT_EQ(serial, reduce(3));
  EXPECT_EQ(serial, reduce(8));
}

/// Records which threads ran a region's jobs. wait_for_helper() blocks a job
/// until a second thread has entered the region (bounded, so a region that
/// never gets help fails the test instead of hanging it).
class RegionThreads {
 public:
  void enter() {
    std::lock_guard<std::mutex> lock(mutex_);
    ids_.insert(std::this_thread::get_id());
  }
  void wait_for_helper() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (distinct() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  std::size_t distinct() {
    std::lock_guard<std::mutex> lock(mutex_);
    return ids_.size();
  }
  bool saw_other_than(std::thread::id a, std::thread::id b) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::thread::id id : ids_) {
      if (id != a && id != b) return true;
    }
    return false;
  }

 private:
  std::mutex mutex_;
  std::set<std::thread::id> ids_;
};

TEST(ThreadPool, TopLevelRegionsFromTwoThreadsBothGetWorkerHelp) {
  // Each job waits until a second thread has joined its region, so a region
  // left to its caller alone would time out with one distinct thread.
  ThreadPool pool(4);
  RegionThreads seen[2];
  std::thread::id callers[2];
  auto open_region = [&](int r) {
    callers[r] = std::this_thread::get_id();
    pool.for_each_index(8, [&, r](std::size_t) {
      seen[r].enter();
      seen[r].wait_for_helper();
    });
  };
  std::thread first(open_region, 0);
  std::thread second(open_region, 1);
  first.join();
  second.join();
  for (int r = 0; r < 2; ++r) {
    EXPECT_GE(seen[r].distinct(), 2u) << "region " << r;
    EXPECT_TRUE(seen[r].saw_other_than(callers[0], callers[1]))
        << "no pool worker ran a job of region " << r;
  }
}

TEST(ThreadPool, CoordinatorTasksOpenComputeRegionsAndRethrowAfterDraining) {
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 6;
  constexpr std::size_t kJobs = 16;
  std::vector<std::vector<std::size_t>> results(kTasks);
  std::atomic<int> finished{0};
  EXPECT_THROW(
      pool.for_each_task(kTasks,
                         [&](std::size_t t) {
                           results[t].assign(kJobs, 0);
                           pool.for_each_index(kJobs, [&](std::size_t i) {
                             std::this_thread::sleep_for(
                                 std::chrono::microseconds(200));
                             results[t][i] = t * 100 + i;
                           });
                           if (t == 2) {
                             throw std::runtime_error("task 2 failed");
                           }
                           finished.fetch_add(1);
                         }),
      std::runtime_error);
  // The error surfaced only after every sibling finished, results intact.
  EXPECT_EQ(finished.load(), static_cast<int>(kTasks) - 1);
  for (std::size_t t = 0; t < kTasks; ++t) {
    ASSERT_EQ(results[t].size(), kJobs) << "task " << t;
    for (std::size_t i = 0; i < kJobs; ++i) {
      EXPECT_EQ(results[t][i], t * 100 + i) << "task " << t << " job " << i;
    }
  }
  // The pool stays usable.
  std::atomic<int> ok{0};
  pool.for_each_index(16, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 16);
}

TEST(ThreadPool, CoordinatorTasksWithoutComputeRunOnTheCallerInOrder) {
  // The resume property: a coordinator region never wakes a worker by
  // itself, so tasks that open no compute region (or only inline ones) all
  // run on the calling thread, one after another in index order.
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 24;
  std::vector<std::thread::id> ran_on(kTasks);
  std::vector<std::size_t> order;
  pool.for_each_task(kTasks, [&](std::size_t t) {
    ran_on[t] = std::this_thread::get_id();
    order.push_back(t);
    pool.for_each_index(1, [](std::size_t) {});  // n == 1 runs inline
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  });
  for (std::size_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(ran_on[t], std::this_thread::get_id()) << "task " << t;
  }
  std::vector<std::size_t> expected(kTasks);
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, HonoursExplicitConcurrency) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.concurrency(), 3u);
  std::atomic<int> hits{0};
  pool.for_each_index(10, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 10);
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.concurrency(), 1u);
}

TEST(ThreadPool, DefaultConcurrencyReadsEnvVar) {
  ASSERT_EQ(setenv("ETHSM_THREADS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::default_concurrency(), 3u);
  ASSERT_EQ(setenv("ETHSM_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(ThreadPool::default_concurrency(), 1u);  // falls back to hardware
  ASSERT_EQ(unsetenv("ETHSM_THREADS"), 0);
  EXPECT_GE(ThreadPool::default_concurrency(), 1u);
}

TEST(ThreadPool, RejectsZeroGlobalConcurrency) {
  EXPECT_THROW(ThreadPool::set_global_concurrency(0), std::invalid_argument);
}

}  // namespace
}  // namespace ethsm::support
