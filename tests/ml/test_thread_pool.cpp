#include "ml/thread_pool.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <future>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace gsight::ml {
namespace {

TEST(ThreadPool, RunsAllIterationsExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<long> sum{0};
  pool.parallel_for(100, [&](std::size_t i) { sum += static_cast<long>(i); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, SumMatchesSerial) {
  ThreadPool pool(8);
  std::vector<double> out(5000, 0.0);
  pool.parallel_for(5000, [&](std::size_t i) {
    out[i] = static_cast<double>(i) * 0.5;
  });
  const double total = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_DOUBLE_EQ(total, 0.5 * 4999.0 * 5000.0 / 2.0);
}

TEST(ThreadPool, ExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ReusableAfterException) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(10, [](std::size_t) { throw std::runtime_error("x"); });
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> count{0};
  pool.parallel_for(50, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, SequentialCallsCompose) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int round = 0; round < 20; ++round) {
    pool.parallel_for(25, [&](std::size_t) { ++count; });
  }
  EXPECT_EQ(count.load(), 500);
}

// Regression: completion used to be tracked pool-globally, so a
// parallel_for issued from inside a worker task deadlocked (the caller
// waited for tasks only it could have drained). Per-batch tracking with
// a participating caller makes nesting terminate.
TEST(ThreadPool, NestedParallelForTerminates) {
  ThreadPool pool(4);
  std::vector<std::array<std::atomic<int>, 8>> hits(8);
  pool.parallel_for(8, [&](std::size_t outer) {
    pool.parallel_for(8, [&](std::size_t inner) { ++hits[outer][inner]; });
  });
  for (const auto& row : hits) {
    for (const auto& h : row) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, DeeplyNestedParallelForTerminates) {
  ThreadPool pool(2);  // fewer workers than nesting width
  std::atomic<int> count{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(4, [&](std::size_t) {
      pool.parallel_for(4, [&](std::size_t) { ++count; });
    });
  });
  EXPECT_EQ(count.load(), 64);
}

// Regression: the pool-global completion count also made concurrent
// callers from *different* threads wait on each other's work — and a
// caller could return while its own iterations were still running.
// Each batch now waits on exactly its own completions.
TEST(ThreadPool, ConcurrentCallersSeeOwnBatchComplete) {
  ThreadPool pool(4);
  constexpr int kCallers = 6;
  constexpr int kIters = 200;
  std::vector<std::thread> callers;
  std::vector<std::atomic<int>> counts(kCallers);
  std::atomic<int> failures{0};
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < 5; ++round) {
        counts[c] = 0;
        pool.parallel_for(kIters, [&](std::size_t) { ++counts[c]; });
        // parallel_for returning means THIS batch fully completed.
        if (counts[c].load() != kIters) ++failures;
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ThreadPool, NestedExceptionPropagatesToInnerCaller) {
  ThreadPool pool(4);
  std::atomic<int> outer_caught{0};
  pool.parallel_for(4, [&](std::size_t) {
    try {
      pool.parallel_for(8, [](std::size_t i) {
        if (i == 3) throw std::runtime_error("inner");
      });
    } catch (const std::runtime_error&) {
      ++outer_caught;
    }
  });
  EXPECT_EQ(outer_caught.load(), 4);
}

TEST(ThreadPool, SharedPoolSingleton) {
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
  EXPECT_GE(ThreadPool::shared().thread_count(), 1u);
}

TEST(ThreadPoolSubmit, ReturnsTaskValue) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolSubmit, VoidTaskCompletes) {
  ThreadPool pool(2);
  std::atomic<bool> ran{false};
  auto f = pool.submit([&ran] { ran.store(true); });
  f.get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolSubmit, MoveOnlyResultType) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return std::make_unique<int>(7); });
  auto p = f.get();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(*p, 7);
}

TEST(ThreadPoolSubmit, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  // A shared_future keeps this thread's reference to the shared state
  // past the catch block. With a plain future, get() drops it, so the
  // worker may destroy the stored exception while what() is still being
  // read here. That is safe (the exception object is refcounted), but
  // the refcount lives in the uninstrumented C++ runtime, so TSan cannot
  // see the ordering and reports a race.
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); })
               .share();
  try {
    f.get();
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST(ThreadPoolSubmit, ExceptionDoesNotPoisonPool) {
  ThreadPool pool(2);
  auto bad = pool.submit([]() -> int { throw std::runtime_error("x"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
  auto good = pool.submit([] { return std::string("still alive"); });
  EXPECT_EQ(good.get(), "still alive");
  std::atomic<int> count{0};
  pool.parallel_for(50, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolSubmit, ManyConcurrentSubmitsAllComplete) {
  ThreadPool pool(4);
  std::vector<std::future<std::size_t>> futures;
  futures.reserve(200);
  for (std::size_t i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

// The destructor drains already-submitted tasks before joining: a
// fire-and-forget submit (the serve-layer background trainer's pattern)
// is never silently dropped by pool teardown.
TEST(ThreadPoolSubmit, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 32; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
  }
  EXPECT_EQ(ran.load(), 32);
}

}  // namespace
}  // namespace gsight::ml
