#include "common/thread_pool.h"

#include <atomic>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

namespace cloudviews {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> counter{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 100; ++i) {
    group.Spawn([&counter]() {
      counter.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    });
  }
  ASSERT_TRUE(group.Wait().ok());
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, StressTenThousandTasks) {
  ThreadPool pool(4);
  std::atomic<int64_t> sum{0};
  TaskGroup group(&pool);
  for (int64_t i = 0; i < 10000; ++i) {
    group.Spawn([&sum, i]() {
      sum.fetch_add(i, std::memory_order_relaxed);
      return Status::OK();
    });
  }
  ASSERT_TRUE(group.Wait().ok());
  EXPECT_EQ(sum.load(), int64_t{10000} * 9999 / 2);
}

TEST(ThreadPoolTest, TaskGroupPropagatesStatus) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  for (int i = 0; i < 8; ++i) {
    group.Spawn([i]() {
      if (i == 5) return Status::InvalidArgument("task five failed");
      return Status::OK();
    });
  }
  Status status = group.Wait();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(ThreadPoolTest, TaskGroupConvertsExceptionsToStatus) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  group.Spawn([]() -> Status { throw std::runtime_error("kaboom"); });
  Status status = group.Wait();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("kaboom"), std::string::npos);
}

TEST(ThreadPoolTest, NestedTaskGroupsDoNotDeadlock) {
  // Every outer task blocks in an inner Wait(); with 2 workers and 8 outer
  // tasks this deadlocks unless Wait() helps run queued tasks.
  ThreadPool pool(2);
  std::atomic<int> inner_runs{0};
  TaskGroup outer(&pool);
  for (int i = 0; i < 8; ++i) {
    outer.Spawn([&pool, &inner_runs]() {
      TaskGroup inner(&pool);
      for (int j = 0; j < 4; ++j) {
        inner.Spawn([&inner_runs]() {
          inner_runs.fetch_add(1, std::memory_order_relaxed);
          return Status::OK();
        });
      }
      return inner.Wait();
    });
  }
  ASSERT_TRUE(outer.Wait().ok());
  EXPECT_EQ(inner_runs.load(), 32);
}

TEST(ThreadPoolTest, SharedPoolAndDefaultDop) {
  ThreadPool& shared = ThreadPool::Shared();
  EXPECT_GE(shared.num_threads(), 2u);
  EXPECT_EQ(&shared, &ThreadPool::Shared());  // singleton
  EXPECT_GE(ThreadPool::DefaultDop(), 1);
  std::atomic<bool> ran{false};
  TaskGroup group(&shared);
  group.Spawn([&ran]() {
    ran.store(true);
    return Status::OK();
  });
  ASSERT_TRUE(group.Wait().ok());
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, SubmitBackpressureStillRunsEverything) {
  // Far more tasks than the bounded queues hold; overflow must run inline
  // rather than be dropped.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 20000; ++i) {
    group.Spawn([&counter]() {
      counter.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    });
  }
  ASSERT_TRUE(group.Wait().ok());
  EXPECT_EQ(counter.load(), 20000);
}

TEST(ThreadPoolTest, DestructorDrainsOutstandingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    TaskGroup group(&pool);
    for (int i = 0; i < 500; ++i) {
      group.Spawn([&counter]() {
        counter.fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      });
    }
    ASSERT_TRUE(group.Wait().ok());
  }  // pool destroyed
  EXPECT_EQ(counter.load(), 500);
}

// Regression test for a shutdown lost-wakeup: the destructor used to flip
// stop_ and notify WITHOUT touching the wait mutex, so a worker that had
// just evaluated its sleep predicate (false) but not yet gone to sleep
// missed both the flag and the notification and blocked forever, hanging
// join(). The fix stores stop_ under the mutex. Hammering create/destroy
// maximizes the chance of catching a worker in that window; with the bug
// present this test hangs rather than fails.
TEST(ThreadPoolTest, RapidCreateDestroyDoesNotHangShutdown) {
  for (int round = 0; round < 200; ++round) {
    // Declared before the pool: its workers may still run the submitted
    // tasks, which reference `ran`, until the pool's destructor returns.
    std::atomic<int> ran{0};
    ThreadPool pool(4);
    // Half the rounds submit a little work so destruction races both
    // sleeping and task-running workers; half destroy immediately, when
    // every worker is headed for (or already in) the predicate window.
    if (round % 2 == 0) {
      for (int i = 0; i < 8; ++i) {
        pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      }
    }
  }
}

}  // namespace
}  // namespace cloudviews
