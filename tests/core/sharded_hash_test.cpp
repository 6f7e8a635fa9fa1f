#include "core/sharded_hash.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/bfhrf.hpp"
#include "core/frequency_hash.hpp"
#include "core/tree_source.hpp"
#include "support/test_util.hpp"
#include "util/bitset.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bfhrf::core {
namespace {

using phylo::TaxonSet;

TEST(ShardOfTest, ZeroBitsRoutesEverythingToShardZero) {
  EXPECT_EQ(shard_of(0, 0), 0u);
  EXPECT_EQ(shard_of(~std::uint64_t{0}, 0), 0u);
}

TEST(ShardOfTest, TopBitsSelectTheShard) {
  // With b bits, the shard is the top b bits of the fingerprint —
  // disjoint from the low bits the in-shard probe consumes.
  EXPECT_EQ(shard_of(std::uint64_t{1} << 63, 1), 1u);
  EXPECT_EQ(shard_of(std::uint64_t{1} << 62, 1), 0u);
  EXPECT_EQ(shard_of(std::uint64_t{0xF} << 60, 4), 15u);
  EXPECT_EQ(shard_of(std::uint64_t{0x5} << 60, 4), 5u);
}

TEST(ShardedHashTest, RoundsShardCountToPowerOfTwo) {
  const ShardedFrequencyHash h3(64, 3);
  EXPECT_EQ(h3.shard_count(), 4u);
  EXPECT_EQ(h3.shard_bits(), 2u);
  const ShardedFrequencyHash h1(64, 0);
  EXPECT_EQ(h1.shard_count(), 1u);
  EXPECT_EQ(h1.shard_bits(), 0u);
}

TEST(ShardedHashTest, MatchesSingleTableOnRandomKeys) {
  const std::size_t n_bits = 100;
  const std::size_t wp = util::words_for_bits(n_bits);
  util::Rng rng(7);
  std::vector<std::uint64_t> keys;
  const std::size_t count = 500;
  for (std::size_t i = 0; i < count * wp; ++i) {
    keys.push_back(rng());
  }

  FrequencyHash single(n_bits);
  ShardedFrequencyHash sharded(n_bits, 8);
  // Insert every key twice through different entry points so routing is
  // exercised on both the scalar and batched paths.
  for (std::size_t i = 0; i < count; ++i) {
    single.add({keys.data() + i * wp, wp}, 1);
    sharded.add_weighted({keys.data() + i * wp, wp}, 1, 1.0);
  }
  single.add_many(keys.data(), count, nullptr);
  sharded.add_many(keys.data(), count, nullptr);

  EXPECT_EQ(sharded.unique_count(), single.unique_count());
  EXPECT_EQ(sharded.total_count(), single.total_count());
  EXPECT_DOUBLE_EQ(sharded.total_weight(), single.total_weight());
  for (std::size_t i = 0; i < count; ++i) {
    const util::ConstWordSpan key{keys.data() + i * wp, wp};
    EXPECT_EQ(sharded.frequency(key), single.frequency(key));
  }
  // Shard totals must partition the global totals.
  std::size_t unique_sum = 0;
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    unique_sum += sharded.shard(s).unique_count();
  }
  EXPECT_EQ(unique_sum, sharded.unique_count());
  EXPECT_GE(sharded.shard_skew(), 1.0);
}

TEST(BfhIndexViewTest, RoutedLookupMatchesPerShardLookup) {
  const std::size_t n_bits = 72;
  const std::size_t wp = util::words_for_bits(n_bits);
  util::Rng rng(11);
  std::vector<std::uint64_t> keys;
  const std::size_t count = 300;
  for (std::size_t i = 0; i < count * wp; ++i) {
    keys.push_back(rng());
  }
  ShardedFrequencyHash sharded(n_bits, 4);
  sharded.add_many(keys.data(), count, nullptr);

  const BfhIndexView view(sharded);
  ASSERT_TRUE(view.valid());
  EXPECT_EQ(view.shard_count(), 4u);
  std::vector<std::uint32_t> freqs(count);
  view.frequency_many(keys.data(), count, freqs.data());
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(freqs[i], sharded.frequency({keys.data() + i * wp, wp}));
  }
  // Missing keys resolve to zero through the routed pipeline too.
  std::vector<std::uint64_t> missing(8 * wp);
  for (auto& w : missing) {
    w = rng() | (std::uint64_t{1} << 63);
  }
  std::vector<std::uint32_t> zero(8);
  view.frequency_many(missing.data(), 8, zero.data());
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(zero[i], sharded.frequency({missing.data() + i * wp, wp}));
  }
}

TEST(ShardedEngineTest, ShardedBuildMatchesSingleTableEngine) {
  const auto taxa = TaxonSet::make_numbered(30);
  util::Rng rng(21);
  const auto reference = test::random_collection(taxa, 40, 4, rng);
  const auto queries = test::random_collection(taxa, 12, 6, rng);

  Bfhrf single(taxa->size(), {.threads = 1, .shards = 1});
  single.build(reference);
  const auto want = single.query(queries);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    Bfhrf sharded(taxa->size(), {.threads = threads, .shards = 8});
    sharded.build(reference);
    ASSERT_NE(dynamic_cast<const ShardedFrequencyHash*>(&sharded.store()),
              nullptr);
    EXPECT_EQ(sharded.stats().unique_bipartitions,
              single.stats().unique_bipartitions);
    EXPECT_EQ(sharded.stats().total_bipartitions,
              single.stats().total_bipartitions);
    const auto got = sharded.query(queries);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "threads=" << threads << " query " << i;
    }
  }
}

TEST(ShardedEngineTest, StreamingShardedBuildMatches) {
  const auto taxa = TaxonSet::make_numbered(24);
  util::Rng rng(31);
  const auto reference = test::random_collection(taxa, 30, 4, rng);
  const auto queries = test::random_collection(taxa, 8, 5, rng);

  Bfhrf single(taxa->size(), {.threads = 1, .shards = 1});
  single.build(reference);
  const auto want = single.query(queries);

  Bfhrf sharded(taxa->size(), {.threads = 4, .shards = 4});
  SpanTreeSource source(reference);
  sharded.build(source);
  const auto got = sharded.query(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(got[i], want[i]);
  }
}

TEST(ShardedEngineTest, ShardsRejectVariantAndCompressedStores) {
  EXPECT_THROW(Bfhrf(16, {.compressed_keys = true, .shards = 4}),
               InvalidArgument);
  const RfVariant& v = classic_rf();
  EXPECT_THROW(Bfhrf(16, {.variant = &v, .shards = 4}), InvalidArgument);
  // shards <= 1 with either is fine (explicitly unsharded).
  EXPECT_NO_THROW(Bfhrf(16, {.compressed_keys = true, .shards = 1}));
}

TEST(ShardedEngineTest, MergeFromReplaysAcrossShardShapes) {
  const std::size_t n_bits = 48;
  const std::size_t wp = util::words_for_bits(n_bits);
  util::Rng rng(41);
  std::vector<std::uint64_t> keys;
  const std::size_t count = 200;
  for (std::size_t i = 0; i < count * wp; ++i) {
    keys.push_back(rng());
  }
  ShardedFrequencyHash a(n_bits, 2);
  ShardedFrequencyHash b(n_bits, 8);  // different shape: replay merge
  a.add_many(keys.data(), count / 2, nullptr);
  b.add_many(keys.data() + (count / 2) * wp, count - count / 2, nullptr);
  a.merge_from(b);

  FrequencyHash all(n_bits);
  all.add_many(keys.data(), count, nullptr);
  EXPECT_EQ(a.unique_count(), all.unique_count());
  EXPECT_EQ(a.total_count(), all.total_count());
  for (std::size_t i = 0; i < count; ++i) {
    const util::ConstWordSpan key{keys.data() + i * wp, wp};
    EXPECT_EQ(a.frequency(key), all.frequency(key));
  }
}

}  // namespace
}  // namespace bfhrf::core
