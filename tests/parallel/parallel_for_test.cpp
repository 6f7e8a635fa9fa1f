#include "parallel/parallel_for.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace bfhrf::parallel {
namespace {

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(0, kN, 4, [&](std::size_t i) { ++hits[i]; }, 7);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, EmptyRangeIsNoOp) {
  int calls = 0;
  parallel_for(5, 5, 4, [&](std::size_t) { ++calls; });
  parallel_for(7, 3, 4, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, SingleThreadRunsInline) {
  std::vector<std::size_t> order;
  parallel_for(0, 10, 1, [&](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expect(10);
  std::iota(expect.begin(), expect.end(), 0u);
  EXPECT_EQ(order, expect);  // inline execution preserves order
}

TEST(ParallelForTest, SeveralLanesLeaveTheCallerOnlyJoining) {
  // With more than one lane every lane is a spawned thread and the caller
  // runs no item; one lane runs every item inline on the caller.
  const std::thread::id caller = std::this_thread::get_id();
  ASSERT_EQ(lane_count(400, 4, 1), 4u);
  std::atomic<int> on_caller{0};
  parallel_for(
      0, 400, 4,
      [&](std::size_t) {
        if (std::this_thread::get_id() == caller) {
          ++on_caller;
        }
      },
      1);
  EXPECT_EQ(on_caller.load(), 0);

  std::size_t inline_calls = 0;
  parallel_for(0, 400, 1, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++inline_calls;
  });
  EXPECT_EQ(inline_calls, 400u);
}

TEST(RunLanesTest, JoinsEveryLaneBeforeRethrowingTheFirstError) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(4);
  std::atomic<int> finished{0};
  const auto run = [&] {
    run_lanes(4, [&](std::size_t lane) {
      ids[lane] = std::this_thread::get_id();
      if (lane == 0) {
        throw std::runtime_error("lane 0");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ++finished;
    });
  };
  EXPECT_THROW(run(), std::runtime_error);
  EXPECT_EQ(finished.load(), 3);  // the others ran to the end first
  for (const std::thread::id id : ids) {
    EXPECT_NE(id, caller);
  }

  std::size_t inline_lanes = 0;
  run_lanes(1, [&](std::size_t lane) {
    EXPECT_EQ(lane, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++inline_lanes;
  });
  EXPECT_EQ(inline_lanes, 1u);
}

TEST(ParallelForTest, PropagatesExceptions) {
  EXPECT_THROW(parallel_for(0, 100, 4,
                            [](std::size_t i) {
                              if (i == 37) {
                                throw std::runtime_error("x");
                              }
                            },
                            1),
               std::runtime_error);
}

TEST(ParallelForRankedTest, RanksAreWithinBounds) {
  constexpr std::size_t kThreads = 4;
  ASSERT_EQ(lane_count(1000, kThreads), kThreads);
  std::atomic<int> bad{0};
  parallel_for_ranked(0, 1000, kThreads, [&](std::size_t rank, std::size_t) {
    if (rank >= kThreads) {
      ++bad;
    }
  });
  EXPECT_EQ(bad.load(), 0);
  // Fewer chunks than threads: ranks stay below the lanes actually run.
  ASSERT_EQ(lane_count(40, kThreads), 3u);
  parallel_for_ranked(0, 40, kThreads, [&](std::size_t rank, std::size_t) {
    if (rank >= 3) {
      ++bad;
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST(EffectiveThreadsTest, ZeroMeansHardware) {
  EXPECT_GE(effective_threads(0), 1u);
  EXPECT_EQ(effective_threads(3), 3u);
}

TEST(ParallelForTest, ManyMoreThreadsThanItems) {
  EXPECT_EQ(lane_count(3, 64, 1), 3u);
  std::vector<std::atomic<int>> hits(3);
  parallel_for(0, 3, 64, [&](std::size_t i) { ++hits[i]; }, 1);
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

}  // namespace
}  // namespace bfhrf::parallel
