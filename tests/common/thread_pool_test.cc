#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <iterator>
#include <memory>
#include <mutex>
#include <set>

namespace carp {
namespace {

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, ClampsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, WorkerIndexInRangeOnPoolAndAbsentOffPool) {
  EXPECT_EQ(ThreadPool::CurrentWorkerIndex(), -1);
  ThreadPool pool(3);
  std::mutex mu;
  std::set<int> seen;
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&] {
      const int index = ThreadPool::CurrentWorkerIndex();
      std::lock_guard<std::mutex> lock(mu);
      seen.insert(index);
    });
  }
  pool.WaitIdle();
  ASSERT_FALSE(seen.empty());
  for (int index : seen) {
    EXPECT_GE(index, 0);
    EXPECT_LT(index, pool.size());
  }
  EXPECT_EQ(ThreadPool::CurrentWorkerIndex(), -1);
}

TEST(ThreadPoolTest, WaitIdleWithNoWorkReturns) {
  ThreadPool pool(2);
  pool.WaitIdle();  // must not hang
  SUCCEED();
}

// Threads of this process, or -1 where /proc/self/task is unavailable.
int ProcessThreadCount() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return -1;
  return static_cast<int>(std::distance(it, {}));
}

TEST(ThreadPoolTest, PoolWithoutTasksStartsNoWorker) {
  const int before = ProcessThreadCount();
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3);
  pool.WaitIdle();  // must not hang with no worker running
  EXPECT_EQ(ThreadPool::CurrentWorkerIndex(), -1);
  if (before >= 0) {
    EXPECT_EQ(ProcessThreadCount(), before);
  }

  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 1);
  // At least: a sanitizer runtime may start a thread of its own here.
  if (before >= 0) {
    EXPECT_GE(ProcessThreadCount(), before + pool.size());
  }
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    pool.WaitIdle();
    EXPECT_EQ(count.load(), 50 * (round + 1));
  }
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
  }  // destructor joins after the queue drains
  EXPECT_EQ(count.load(), 100);
}

}  // namespace
}  // namespace carp
