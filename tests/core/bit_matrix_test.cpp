#include "core/bit_matrix.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/all_pairs.hpp"
#include "phylo/bipartition.hpp"
#include "phylo/taxon_set.hpp"
#include "support/test_util.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace bfhrf::core {
namespace {

using phylo::TaxonSet;
using phylo::Tree;

void expect_same(const RfMatrix& a, const RfMatrix& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < a.size(); ++j) {
      ASSERT_EQ(a.at(i, j), b.at(i, j)) << "cell (" << i << "," << j << ")";
    }
  }
}

/// The pre-bit-matrix all-pairs walk: one sorted-set merge per pair. It
/// shares no id space, hash or kernel with the bit engines.
RfMatrix merge_walk(std::span<const Tree> trees) {
  std::vector<phylo::BipartitionSet> sets;
  sets.reserve(trees.size());
  for (const Tree& t : trees) {
    sets.push_back(phylo::extract_bipartitions(t, {}));
  }
  RfMatrix m(trees.size());
  for (std::size_t i = 0; i < sets.size(); ++i) {
    for (std::size_t j = i + 1; j < sets.size(); ++j) {
      m.set(i, j,
            static_cast<std::uint32_t>(
                phylo::BipartitionSet::symmetric_difference_size(sets[i],
                                                                 sets[j])));
    }
  }
  return m;
}

TEST(BitMatrixTest, EnginesMatchLegacyAcrossThreadCounts) {
  const auto taxa = TaxonSet::make_numbered(24);
  util::Rng rng(test::fuzz_seed(0xB17));
  const auto trees = test::random_collection(taxa, 30, 5, rng);
  const RfMatrix legacy = merge_walk(trees);
  for (const std::size_t t : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
    expect_same(legacy, all_pairs_rf(trees, {.threads = t,
                                             .engine =
                                                 AllPairsEngine::BitDense}));
    expect_same(legacy, all_pairs_rf(trees, {.threads = t,
                                             .engine =
                                                 AllPairsEngine::BitSparse}));
    expect_same(legacy,
                all_pairs_rf(trees, {.threads = t,
                                     .engine = AllPairsEngine::Auto}));
  }
}

TEST(BitMatrixTest, HardwareDefaultThreadsWork) {
  const auto taxa = TaxonSet::make_numbered(16);
  util::Rng rng(11);
  const auto trees = test::random_collection(taxa, 12, 4, rng);
  const RfMatrix a = all_pairs_rf(trees, {.threads = 1});
  // threads = 0 means hardware default (satellite fix: the doc and the
  // behaviour now agree with BfhrfOptions).
  const RfMatrix b = all_pairs_rf(trees, {.threads = 0});
  expect_same(a, b);
}

TEST(BitMatrixTest, SymmetryAndZeroDiagonal) {
  const auto taxa = TaxonSet::make_numbered(20);
  util::Rng rng(5);
  const auto trees = test::independent_collection(taxa, 16, rng);
  for (const AllPairsEngine e :
       {AllPairsEngine::BitDense, AllPairsEngine::BitSparse}) {
    const RfMatrix m = all_pairs_rf(trees, {.threads = 4, .engine = e});
    for (std::size_t i = 0; i < trees.size(); ++i) {
      EXPECT_EQ(m.at(i, i), 0U);
      for (std::size_t j = 0; j < trees.size(); ++j) {
        EXPECT_EQ(m.at(i, j), m.at(j, i));
      }
    }
  }
}

TEST(BitMatrixTest, MaxRfSaturation) {
  // Find a pair of independent trees with fully disjoint split sets; the
  // engines must report the saturated distance d_i + d_j for it.
  const auto taxa = TaxonSet::make_numbered(16);
  util::Rng rng(test::fuzz_seed(0x5A7));
  const phylo::BipartitionOptions bip_opts;
  std::vector<Tree> trees;
  std::optional<std::pair<std::size_t, std::size_t>> disjoint;
  for (int attempt = 0; attempt < 64 && !disjoint; ++attempt) {
    trees = test::independent_collection(taxa, 12, rng);
    std::vector<phylo::BipartitionSet> sets;
    sets.reserve(trees.size());
    for (const auto& t : trees) {
      sets.push_back(phylo::extract_bipartitions(t, bip_opts));
    }
    for (std::size_t i = 0; i < sets.size() && !disjoint; ++i) {
      for (std::size_t j = i + 1; j < sets.size() && !disjoint; ++j) {
        if (phylo::BipartitionSet::intersection_size(sets[i], sets[j]) == 0) {
          disjoint = {i, j};
        }
      }
    }
  }
  ASSERT_TRUE(disjoint.has_value())
      << "no disjoint pair in 64 independent collections";
  const auto [i, j] = *disjoint;
  const std::size_t d_i =
      phylo::extract_bipartitions(trees[i], bip_opts).size();
  const std::size_t d_j =
      phylo::extract_bipartitions(trees[j], bip_opts).size();
  for (const AllPairsEngine e :
       {AllPairsEngine::BitDense, AllPairsEngine::BitSparse}) {
    const RfMatrix m = all_pairs_rf(trees, {.threads = 2, .engine = e});
    EXPECT_EQ(m.at(i, j), d_i + d_j);
  }
}

TEST(BitMatrixTest, DensityThresholdBoundary) {
  // density() = memberships / (trees · width). 100 trees × 4 of 1024
  // unique splits each → density 1/256, kDefaultDensityThreshold exactly.
  const UniverseStats stats{.trees = 100,
                            .universe_width = 1024,
                            .total_memberships = 100 * 4};
  ASSERT_EQ(stats.density(), kDefaultDensityThreshold);

  // At the threshold exactly: dense (the comparison is >=).
  AllPairsOptions opts;
  EXPECT_EQ(pick_bit_engine(stats, opts), AllPairsEngine::BitDense);
  // One more unique split puts the density just below: sparse.
  const UniverseStats below{.trees = 100,
                            .universe_width = 1025,
                            .total_memberships = 100 * 4};
  ASSERT_LT(below.density(), kDefaultDensityThreshold);
  EXPECT_EQ(pick_bit_engine(below, opts), AllPairsEngine::BitSparse);
  // 100 trees × 64 of 1024 splits each (density 1/16): dense.
  const UniverseStats dense_stats{.trees = 100,
                                  .universe_width = 1024,
                                  .total_memberships = 100 * 64};
  EXPECT_EQ(pick_bit_engine(dense_stats, opts), AllPairsEngine::BitDense);

  // A wide universe where each row is one split in 100k: sparse.
  const UniverseStats sparse_stats{.trees = 10,
                                   .universe_width = 100000,
                                   .total_memberships = 10};
  EXPECT_EQ(pick_bit_engine(sparse_stats, opts), AllPairsEngine::BitSparse);

  // Explicit engine requests pass through regardless of density.
  opts.engine = AllPairsEngine::BitSparse;
  EXPECT_EQ(pick_bit_engine(stats, opts), AllPairsEngine::BitSparse);
  opts.engine = AllPairsEngine::BitDense;
  EXPECT_EQ(pick_bit_engine(sparse_stats, opts), AllPairsEngine::BitDense);

  // Degenerate universes have density 0 and pick sparse.
  const UniverseStats empty_stats{};
  EXPECT_EQ(empty_stats.density(), 0.0);
  EXPECT_EQ(pick_bit_engine(empty_stats, AllPairsOptions{}),
            AllPairsEngine::BitSparse);
}

TEST(BitMatrixTest, BitMatrixRfReportsUniverseStats) {
  const auto taxa = TaxonSet::make_numbered(14);
  util::Rng rng(9);
  const auto trees = test::random_collection(taxa, 10, 3, rng);
  std::vector<phylo::BipartitionSet> sets;
  sets.reserve(trees.size());
  std::uint64_t memberships = 0;
  for (const auto& t : trees) {
    sets.push_back(phylo::extract_bipartitions(t, {}));
    memberships += sets.back().size();
  }
  UniverseStats stats;
  const RfMatrix m = bit_matrix_rf(sets, {.threads = 2}, &stats);
  EXPECT_EQ(m.size(), trees.size());
  EXPECT_EQ(stats.trees, trees.size());
  EXPECT_EQ(stats.total_memberships, memberships);
  // The universe is at most the sum of rows and at least one tree's row.
  EXPECT_LE(stats.universe_width, memberships);
  EXPECT_GE(stats.universe_width, sets.front().size());
}

TEST(BitMatrixTest, TileRowsOverrideDoesNotChangeResults) {
  // Tiles are at least 8 rows, and a small triangle gets 8-row tiles to
  // feed every lane: r below, at and just past one tile, and past two,
  // gives one partial tile, one full tile, and full tiles beside a partial
  // one, on and off the diagonal.
  const auto taxa = TaxonSet::make_numbered(18);
  util::Rng rng(13);
  const auto trees = test::random_collection(taxa, 21, 4, rng);
  for (const std::size_t r : {std::size_t{7}, std::size_t{8}, std::size_t{9},
                              std::size_t{17}, std::size_t{21}}) {
    SCOPED_TRACE("r=" + std::to_string(r));
    const std::span<const Tree> collection(trees.data(), r);
    const RfMatrix base = merge_walk(collection);
    for (const AllPairsEngine e :
         {AllPairsEngine::BitDense, AllPairsEngine::BitSparse}) {
      expect_same(base, all_pairs_rf(collection, {.threads = 4, .engine = e}));
    }
  }
}

TEST(BitMatrixTest, ForcedSwarMatchesVectorized) {
  const auto taxa = TaxonSet::make_numbered(40);
  util::Rng rng(test::fuzz_seed(0x5135));
  const auto trees = test::random_collection(taxa, 24, 6, rng);
  for (const AllPairsEngine e :
       {AllPairsEngine::BitDense, AllPairsEngine::BitSparse}) {
    util::simd::set_force_level(util::simd::Level::Swar);
    const RfMatrix swar = all_pairs_rf(trees, {.threads = 2, .engine = e});
    util::simd::set_force_level(std::nullopt);
    const RfMatrix vec = all_pairs_rf(trees, {.threads = 2, .engine = e});
    expect_same(swar, vec);
  }
}

TEST(BitMatrixTest, SingleTreeCollection) {
  const auto taxa = TaxonSet::make_numbered(10);
  util::Rng rng(21);
  const auto trees = test::random_collection(taxa, 1, 2, rng);
  for (const AllPairsEngine e :
       {AllPairsEngine::BitDense, AllPairsEngine::BitSparse}) {
    const RfMatrix m = all_pairs_rf(trees, {.engine = e});
    EXPECT_EQ(m.size(), 1U);
    EXPECT_EQ(m.at(0, 0), 0U);
  }
}

}  // namespace
}  // namespace bfhrf::core
