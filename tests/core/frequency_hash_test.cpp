#include "core/frequency_hash.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/bitset.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bfhrf::core {
namespace {

util::DynamicBitset key(std::size_t n_bits, std::initializer_list<int> bits) {
  util::DynamicBitset b(n_bits);
  for (const int i : bits) {
    b.set(static_cast<std::size_t>(i));
  }
  return b;
}

TEST(FrequencyHashTest, EmptyHash) {
  const FrequencyHash h(100);
  EXPECT_EQ(h.unique_count(), 0u);
  EXPECT_EQ(h.total_count(), 0u);
  EXPECT_DOUBLE_EQ(h.total_weight(), 0.0);
  EXPECT_EQ(h.frequency(key(100, {1, 2}).words()), 0u);
}

TEST(FrequencyHashTest, AddAndLookup) {
  FrequencyHash h(100);
  const auto a = key(100, {1, 2});
  const auto b = key(100, {64, 65});
  h.add(a.words());
  h.add(a.words());
  h.add(b.words(), 3);
  EXPECT_EQ(h.frequency(a.words()), 2u);
  EXPECT_EQ(h.frequency(b.words()), 3u);
  EXPECT_EQ(h.unique_count(), 2u);
  EXPECT_EQ(h.total_count(), 5u);
  EXPECT_DOUBLE_EQ(h.total_weight(), 5.0);  // unit weights
}

TEST(FrequencyHashTest, AbsentKeyIsZero) {
  FrequencyHash h(64);
  h.add(key(64, {0}).words());
  EXPECT_EQ(h.frequency(key(64, {1}).words()), 0u);
}

TEST(FrequencyHashTest, GrowthPreservesContents) {
  constexpr std::size_t kBits = 200;
  FrequencyHash h(kBits);  // default small table, forced to grow
  util::Rng rng(42);
  std::map<std::string, std::uint32_t> mirror;
  for (int i = 0; i < 5000; ++i) {
    util::DynamicBitset b(kBits);
    for (int j = 0; j < 5; ++j) {
      b.set(rng.below(kBits));
    }
    h.add(b.words());
    ++mirror[b.to_string()];
  }
  EXPECT_EQ(h.unique_count(), mirror.size());
  EXPECT_EQ(h.total_count(), 5000u);
  for (const auto& [s, count] : mirror) {
    EXPECT_EQ(h.frequency(util::DynamicBitset::from_string(s).words()),
              count);
  }
  EXPECT_LE(h.load_factor(), 0.7 + 1e-9);
}

TEST(FrequencyHashTest, CollisionFreeUnderAdversarialKeys) {
  // Dense similar keys (single-bit differences) must never merge.
  constexpr std::size_t kBits = 256;
  FrequencyHash h(kBits);
  for (std::size_t i = 0; i < kBits; ++i) {
    h.add(key(kBits, {static_cast<int>(i)}).words());
  }
  EXPECT_EQ(h.unique_count(), kBits);
  for (std::size_t i = 0; i < kBits; ++i) {
    EXPECT_EQ(h.frequency(key(kBits, {static_cast<int>(i)}).words()), 1u);
  }
}

TEST(FrequencyHashTest, ExpectedUniquePresizesTable) {
  FrequencyHash h(64, 10000);
  const std::size_t before = h.memory_bytes();
  for (int i = 0; i < 64; ++i) {
    h.add(key(64, {i}).words());
  }
  // Presized: no slot-table or arena reallocation while under capacity.
  EXPECT_EQ(h.memory_bytes(), before);
}

TEST(FrequencyHashTest, MergeCombinesCounts) {
  FrequencyHash a(100);
  FrequencyHash b(100);
  const auto k1 = key(100, {1, 2});
  const auto k2 = key(100, {3, 4});
  const auto k3 = key(100, {5, 6});
  a.add(k1.words(), 2);
  a.add(k2.words(), 1);
  b.add(k2.words(), 5);
  b.add(k3.words(), 7);
  a.merge(b);
  EXPECT_EQ(a.frequency(k1.words()), 2u);
  EXPECT_EQ(a.frequency(k2.words()), 6u);
  EXPECT_EQ(a.frequency(k3.words()), 7u);
  EXPECT_EQ(a.unique_count(), 3u);
  EXPECT_EQ(a.total_count(), 15u);
  EXPECT_DOUBLE_EQ(a.total_weight(), 15.0);
}

TEST(FrequencyHashTest, MergeWidthMismatchThrows) {
  FrequencyHash a(100);
  FrequencyHash b(200);
  EXPECT_THROW(a.merge(b), InvalidArgument);
}

TEST(FrequencyHashTest, MergePreservesWeightedTotals) {
  FrequencyHash a(64);
  FrequencyHash b(64);
  a.add_weighted(key(64, {1}).words(), 2, 0.5);
  b.add_weighted(key(64, {2}).words(), 3, 2.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.total_weight(), 2 * 0.5 + 3 * 2.0);
  EXPECT_EQ(a.total_count(), 5u);
}

TEST(FrequencyHashTest, ForEachVisitsEveryUniqueKeyOnce) {
  FrequencyHash h(128);
  util::Rng rng(7);
  std::map<std::string, std::uint32_t> mirror;
  for (int i = 0; i < 500; ++i) {
    util::DynamicBitset b(128);
    b.set(rng.below(128));
    b.set(rng.below(128));
    h.add(b.words());
    ++mirror[b.to_string()];
  }
  std::map<std::string, std::uint32_t> seen;
  h.for_each([&](util::ConstWordSpan words, std::uint32_t count) {
    const util::DynamicBitset b(128, words);
    seen[b.to_string()] = count;
  });
  EXPECT_EQ(seen, mirror);
}

TEST(FrequencyHashTest, WeightedTotals) {
  FrequencyHash h(64);
  h.add_weighted(key(64, {1}).words(), 1, 2.5);
  h.add_weighted(key(64, {1}).words(), 1, 2.5);
  h.add_weighted(key(64, {2}).words(), 1, 1.0);
  EXPECT_DOUBLE_EQ(h.total_weight(), 6.0);
  EXPECT_EQ(h.total_count(), 3u);
  EXPECT_EQ(h.frequency(key(64, {1}).words()), 2u);
}

TEST(FrequencyHashTest, MemoryGrowsWithUniqueKeysNotTotalCount) {
  FrequencyHash repeated(128);
  FrequencyHash unique(128);
  util::Rng rng(11);
  const auto k = key(128, {1, 2, 3});
  for (int i = 0; i < 2000; ++i) {
    repeated.add(k.words());
    util::DynamicBitset b(128);
    b.set(rng.below(128));
    b.set(rng.below(128));
    b.set(i % 128 == 0 ? 1u : static_cast<std::size_t>(rng.below(128)));
    unique.add(b.words());
  }
  EXPECT_LT(repeated.memory_bytes(), unique.memory_bytes());
  EXPECT_EQ(repeated.unique_count(), 1u);
}

class FrequencyHashWidthSweep : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(FrequencyHashWidthSweep, RandomInsertLookupConsistency) {
  const std::size_t n_bits = GetParam();
  FrequencyHash h(n_bits);
  util::Rng rng(n_bits);
  std::map<std::string, std::uint32_t> mirror;
  for (int i = 0; i < 800; ++i) {
    util::DynamicBitset b(n_bits);
    const std::size_t ones = 1 + rng.below(std::min<std::size_t>(n_bits, 8));
    for (std::size_t j = 0; j < ones; ++j) {
      b.set(rng.below(n_bits));
    }
    h.add(b.words());
    ++mirror[b.to_string()];
  }
  for (const auto& [s, count] : mirror) {
    EXPECT_EQ(h.frequency(util::DynamicBitset::from_string(s).words()),
              count);
  }
  EXPECT_EQ(h.unique_count(), mirror.size());
}

INSTANTIATE_TEST_SUITE_P(Widths, FrequencyHashWidthSweep,
                         ::testing::Values(8, 48, 64, 65, 100, 144, 128, 250,
                                           1000));

TEST(FrequencyHashTest, AddManyAtExactLoadBoundaryGrowsUpFrontOnly) {
  // A 16-slot table holds at most floor(0.7 * 16) = 11 resident keys.
  FrequencyHash h(64, 1);
  ASSERT_EQ(h.capacity_slots(), 16u);
  for (std::uint64_t k = 1; k <= 3; ++k) {
    h.add(util::ConstWordSpan{&k, 1});
  }
  // A batch landing EXACTLY on the boundary must not grow: 3 + 8 = 11.
  std::vector<std::uint64_t> batch;
  for (std::uint64_t k = 100; k < 108; ++k) {
    batch.push_back(k);
  }
  h.add_many(batch.data(), batch.size(), nullptr);
  EXPECT_EQ(h.unique_count(), 11u);
  EXPECT_EQ(h.capacity_slots(), 16u);
  EXPECT_LE(h.load_factor(), 0.7);
  // One key past the boundary doubles the table — before the batch runs,
  // so no prefetched line is ever invalidated mid-pipeline.
  const std::uint64_t extra = 999;
  h.add_many(&extra, 1, nullptr);
  EXPECT_EQ(h.capacity_slots(), 32u);
  EXPECT_EQ(h.unique_count(), 12u);
  // Every key survived the boundary dance with its exact count.
  for (std::uint64_t k = 1; k <= 3; ++k) {
    EXPECT_EQ(h.frequency(util::ConstWordSpan{&k, 1}), 1u);
  }
  for (const std::uint64_t k : batch) {
    EXPECT_EQ(h.frequency(util::ConstWordSpan{&k, 1}), 1u);
  }
  EXPECT_EQ(h.frequency(util::ConstWordSpan{&extra, 1}), 1u);
}

TEST(FrequencyHashTest, MergeWeightedRandomizedPreservesTotals) {
  // Weight is a pure function of the key (the merge() contract), so the
  // merged weighted mass must equal the sum of both sides' masses exactly
  // up to floating-point association.
  util::Rng rng(0x77);
  const std::size_t n_bits = 96;
  const auto weight_of = [](const util::DynamicBitset& b) {
    return 0.25 + static_cast<double>(b.count());
  };
  FrequencyHash a(n_bits);
  FrequencyHash b(n_bits);
  std::map<std::string, std::uint64_t> mirror;
  double expected_weight = 0;
  for (int op = 0; op < 400; ++op) {
    util::DynamicBitset k(n_bits);
    const std::size_t ones = 1 + rng.below(6);
    for (std::size_t j = 0; j < ones; ++j) {
      k.set(rng.below(n_bits));
    }
    const auto count = static_cast<std::uint32_t>(1 + rng.below(3));
    FrequencyHash& target = (op % 2 == 0) ? a : b;
    target.add_weighted(k.words(), count, weight_of(k));
    mirror[k.to_string()] += count;
    expected_weight += static_cast<double>(count) * weight_of(k);
  }
  const std::uint64_t expected_total = a.total_count() + b.total_count();
  a.merge(b);
  EXPECT_EQ(a.total_count(), expected_total);
  EXPECT_EQ(a.unique_count(), mirror.size());
  EXPECT_NEAR(a.total_weight(), expected_weight,
              1e-9 * std::abs(expected_weight));
  for (const auto& [s, count] : mirror) {
    EXPECT_EQ(a.frequency(util::DynamicBitset::from_string(s).words()),
              count);
  }
}

TEST(FrequencyHashTest, ProbeStatsReflectResidentKeys) {
  FrequencyHash h(64);
  EXPECT_EQ(h.probe_stats().max_groups, 0u);
  util::Rng rng(0x99);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t k = rng();
    h.add(util::ConstWordSpan{&k, 1});
  }
  const auto stats = h.probe_stats();
  EXPECT_GE(stats.mean_groups, 1.0);
  EXPECT_GE(stats.max_groups, 1u);
  EXPECT_LE(stats.mean_groups, static_cast<double>(stats.max_groups));
  // A probe can never walk more groups than the directory holds.
  EXPECT_LE(stats.max_groups, h.capacity_slots() / 16);
}

}  // namespace
}  // namespace bfhrf::core
