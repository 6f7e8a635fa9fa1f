#include "core/sequential_rf.hpp"

#include <gtest/gtest.h>

#include "support/test_util.hpp"
#include "util/rng.hpp"

namespace bfhrf::core {
namespace {

using phylo::TaxonSet;
using phylo::Tree;

TEST(SequentialRfTest, MatchesBruteForce) {
  const auto taxa = TaxonSet::make_numbered(10);
  util::Rng rng(1);
  const auto reference = test::random_collection(taxa, 12, 3, rng);
  const auto queries = test::random_collection(taxa, 5, 4, rng);
  const auto result = sequential_avg_rf(queries, reference);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    double sum = 0;
    for (const auto& r : reference) {
      sum += static_cast<double>(rf_distance(queries[i], r));
    }
    EXPECT_DOUBLE_EQ(result.avg_rf[i],
                     sum / static_cast<double>(reference.size()));
  }
}

TEST(SequentialRfTest, EmptyReferenceThrows) {
  const auto taxa = TaxonSet::make_numbered(8);
  util::Rng rng(2);
  const auto queries = test::random_collection(taxa, 3, 2, rng);
  EXPECT_THROW((void)sequential_avg_rf(queries, {}), InvalidArgument);
}

TEST(SequentialRfTest, EmptyQueriesGiveEmptyResult) {
  const auto taxa = TaxonSet::make_numbered(8);
  util::Rng rng(3);
  const auto reference = test::random_collection(taxa, 5, 2, rng);
  const auto result = sequential_avg_rf({}, reference);
  EXPECT_TRUE(result.avg_rf.empty());
  EXPECT_GT(result.reference_memory_bytes, 0u);
}

TEST(SequentialRfTest, MemoryAccountingGrowsWithR) {
  // The DS memory column (Table I: O(n²r)) comes from this counter.
  const auto taxa = TaxonSet::make_numbered(16);
  util::Rng rng(4);
  const auto trees = test::random_collection(taxa, 40, 3, rng);
  const auto small = sequential_avg_rf(
      std::span<const Tree>(trees.data(), 1),
      std::span<const Tree>(trees.data(), 10));
  const auto large = sequential_avg_rf(
      std::span<const Tree>(trees.data(), 1),
      std::span<const Tree>(trees.data(), 40));
  EXPECT_NEAR(static_cast<double>(large.reference_memory_bytes) /
                  static_cast<double>(small.reference_memory_bytes),
              4.0, 0.5);
}

TEST(SequentialRfTest, DayEngineRejectsVariants) {
  const auto taxa = TaxonSet::make_numbered(10);
  util::Rng rng(5);
  const auto trees = test::random_collection(taxa, 5, 2, rng);
  const SizeFilteredRf variant(2, 4);
  SequentialRfOptions opts;
  opts.engine = PairwiseEngine::Day;
  opts.variant = &variant;
  EXPECT_THROW((void)sequential_avg_rf(trees, trees, opts), InvalidArgument);
}

TEST(SequentialRfTest, NormalizationConventions) {
  const auto taxa = TaxonSet::make_numbered(12);
  util::Rng rng(6);
  const auto trees = test::random_collection(taxa, 8, 4, rng);
  const auto raw = sequential_avg_rf(trees, trees);
  const auto half =
      sequential_avg_rf(trees, trees, {.norm = RfNorm::HalfSum});
  const auto scaled =
      sequential_avg_rf(trees, trees, {.norm = RfNorm::MaxScaled});
  for (std::size_t i = 0; i < trees.size(); ++i) {
    EXPECT_DOUBLE_EQ(half.avg_rf[i], raw.avg_rf[i] / 2.0);
    EXPECT_GE(scaled.avg_rf[i], 0.0);
    EXPECT_LE(scaled.avg_rf[i], 1.0);
  }
}

TEST(SequentialRfTest, MaxScaledWithDayEngineMatchesSetEngine) {
  const auto taxa = TaxonSet::make_numbered(12);
  util::Rng rng(7);
  const auto trees = test::random_collection(taxa, 8, 4, rng);
  const auto set_engine =
      sequential_avg_rf(trees, trees, {.norm = RfNorm::MaxScaled});
  const auto day_engine = sequential_avg_rf(
      trees, trees,
      {.engine = PairwiseEngine::Day, .norm = RfNorm::MaxScaled});
  for (std::size_t i = 0; i < trees.size(); ++i) {
    EXPECT_NEAR(day_engine.avg_rf[i], set_engine.avg_rf[i], 1e-12);
  }
}

TEST(SequentialRfTest, WeightedSymmetricDifferenceAgainstManual) {
  auto taxa = std::make_shared<TaxonSet>(
      std::vector<std::string>{"A", "B", "C", "D", "E", "F"});
  const Tree t1 = phylo::parse_newick("(((A,B),C),((D,E),F));", taxa);
  const Tree t2 = phylo::parse_newick("(((A,C),B),((D,F),E));", taxa);
  const auto b1 = phylo::extract_bipartitions(t1);
  const auto b2 = phylo::extract_bipartitions(t2);
  // Unit weights: symmetric difference size.
  const LambdaRf unit("unit", nullptr, nullptr);
  EXPECT_DOUBLE_EQ(
      weighted_symmetric_difference(b1, b2, unit),
      static_cast<double>(
          phylo::BipartitionSet::symmetric_difference_size(b1, b2)));
  // Constant weight 2 doubles it.
  const LambdaRf twice("twice", nullptr,
                       [](const BipartitionRef&) { return 2.0; });
  EXPECT_DOUBLE_EQ(
      weighted_symmetric_difference(b1, b2, twice),
      2.0 * static_cast<double>(
                phylo::BipartitionSet::symmetric_difference_size(b1, b2)));
}

}  // namespace
}  // namespace bfhrf::core
