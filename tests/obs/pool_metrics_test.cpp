// parallel_for metric integration: every lane flushes its sink before the
// call returns, so no increment made inside `fn` is lost or late, and the
// parallel.for.* series count what was handed out.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>

#include "obs/metrics.hpp"
#include "parallel/parallel_for.hpp"

namespace bfhrf::parallel {
namespace {

TEST(PoolMetrics, ParallelForCountsItemsAndChunks) {
  if (!obs::compiled_in()) {
    GTEST_SKIP() << "observability compiled out";
  }
  obs::reset();
  std::atomic<std::uint64_t> touched{0};
  parallel_for(
      0, 1000, 8,
      [&touched](std::size_t) {
        touched.fetch_add(1, std::memory_order_relaxed);
      },
      /*grain=*/16);
  EXPECT_EQ(touched.load(), 1000u);
  EXPECT_EQ(obs::counter_value("parallel.for.invocations"), 1u);
  EXPECT_EQ(obs::counter_value("parallel.for.items"), 1000u);
  const std::uint64_t chunks = obs::counter_value("parallel.for.chunks");
  EXPECT_GE(chunks, 1u);
  EXPECT_LE(chunks, 1000u / 16 + 8);
  // Steals = chunk claims beyond each participating worker's first, so
  // chunks - steals = the number of workers that got at least one chunk.
  const std::uint64_t steals = obs::counter_value("parallel.for.steals");
  ASSERT_LE(steals, chunks);
  EXPECT_GE(chunks - steals, 1u);
  EXPECT_LE(chunks - steals, 8u);

  // A registry counter bumped inside fn by 8 lanes over 10k items reads
  // the full count as soon as parallel_for returns: each lane flushes its
  // sink before the call does, not only at thread exit.
  const obs::Counter c = obs::counter("test.pool.increments");
  constexpr std::uint64_t kIncrements = 10000;
  parallel_for(0, kIncrements, 8, [c](std::size_t) { c.inc(); }, 1);
  EXPECT_EQ(obs::counter_value("test.pool.increments"), kIncrements);
}

TEST(PoolMetrics, InlineParallelForStillCounts) {
  if (!obs::compiled_in()) {
    GTEST_SKIP() << "observability compiled out";
  }
  obs::reset();
  parallel_for(0, 10, 1, [](std::size_t) {});
  EXPECT_EQ(obs::counter_value("parallel.for.items"), 10u);
  EXPECT_EQ(obs::counter_value("parallel.for.chunks"), 1u);
  EXPECT_EQ(obs::counter_value("parallel.for.steals"), 0u);
}

}  // namespace
}  // namespace bfhrf::parallel
