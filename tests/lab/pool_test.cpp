// The work-stealing executor: every index runs exactly once for any thread
// count, exceptions propagate, and the telemetry counters add up.  These
// tests are the ThreadSanitizer targets for the pool (see ci.yml).

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "common/metrics.hpp"
#include "common/pool.hpp"

namespace cs {
namespace {

TEST(Pool, ResolveThreadsNeverZero) {
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(7), 7u);
  EXPECT_GE(resolve_threads(0), 1u);
}

TEST(Pool, RunsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    constexpr std::size_t kCount = 257;
    std::vector<std::atomic<int>> hits(kCount);
    PoolOptions options;
    options.threads = threads;
    run_indexed(kCount, [&](std::size_t i) { ++hits[i]; }, options);
    for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(Pool, SingleThreadRunsInIndexOrder) {
  std::vector<std::size_t> order;
  PoolOptions options;
  options.threads = 1;
  run_indexed(5, [&](std::size_t i) { order.push_back(i); }, options);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Pool, MoreThreadsThanTasks) {
  std::vector<std::atomic<int>> hits(3);
  PoolOptions options;
  options.threads = 16;
  run_indexed(3, [&](std::size_t i) { ++hits[i]; }, options);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(Pool, ZeroTasksIsANoOp) {
  run_indexed(0, [](std::size_t) { FAIL() << "no task should run"; });
}

TEST(Pool, FirstExceptionPropagatesAfterDrain) {
  PoolOptions options;
  options.threads = 4;
  std::atomic<int> ran{0};
  EXPECT_THROW(
      run_indexed(
          64,
          [&](std::size_t i) {
            ++ran;
            if (i == 13) throw std::runtime_error("task 13 failed");
          },
          options),
      std::runtime_error);
  EXPECT_GE(ran.load(), 1);
}

TEST(Pool, TelemetryCountersAddUp) {
  Metrics metrics;
  PoolOptions options;
  options.threads = 3;
  options.metrics = &metrics;
  run_indexed(50, [](std::size_t) {}, options);
  EXPECT_EQ(metrics.counter("lab.pool.tasks"), 50u);
  EXPECT_EQ(metrics.counter("lab.pool.threads"), 3u);
}

TEST(Pool, UnbalancedLoadStillCompletes) {
  // Front-load the work so idle workers must steal to finish; correctness
  // (not the steal count, which is scheduling-dependent) is the invariant.
  constexpr std::size_t kCount = 64;
  std::vector<std::atomic<int>> hits(kCount);
  PoolOptions options;
  options.threads = 4;
  run_indexed(
      kCount,
      [&](std::size_t i) {
        volatile std::size_t sink = 0;
        for (std::size_t k = 0; k < (i < 4 ? 200000u : 10u); ++k)
          sink = sink + k;
        ++hits[i];
      },
      options);
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

}  // namespace
}  // namespace cs
