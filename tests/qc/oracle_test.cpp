#include "qc/oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "phylo/taxon_set.hpp"
#include "support/test_util.hpp"
#include "util/rng.hpp"

namespace bfhrf::qc {
namespace {

using phylo::TaxonSet;
using phylo::Tree;

bool ran_engine(const OracleReport& report, const std::string& label) {
  return std::find(report.engines.begin(), report.engines.end(), label) !=
         report.engines.end();
}

TEST(OracleTest, CompareMatricesRecordsEveryMismatchingCell) {
  core::RfMatrix expected(3);
  core::RfMatrix actual(3);
  expected.set(0, 1, 4);
  actual.set(0, 1, 4);
  expected.set(0, 2, 2);
  actual.set(0, 2, 6);  // mismatch
  expected.set(1, 2, 8);
  actual.set(1, 2, 0);  // mismatch

  OracleReport report;
  compare_matrices("engine-x", "oracle", expected, actual, report);
  ASSERT_EQ(report.divergences.size(), 2u);
  EXPECT_EQ(report.divergences[0].engine, "engine-x");
  EXPECT_EQ(report.divergences[0].expected, 2.0);
  EXPECT_EQ(report.divergences[0].actual, 6.0);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.cells_checked, 3u);
}

TEST(OracleTest, CompareMatricesHonorsTheMismatchLimit) {
  core::RfMatrix expected(6);
  core::RfMatrix actual(6);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = i + 1; j < 6; ++j) {
      actual.set(i, j, 9);  // every cell wrong
    }
  }
  OracleReport report;
  compare_matrices("engine-x", "oracle", expected, actual, report,
                   /*limit=*/4);
  EXPECT_EQ(report.divergences.size(), 4u);
}

TEST(OracleTest, SelfCrossCheckPassesOnBinaryCollections) {
  const auto taxa = TaxonSet::make_numbered(14);
  const std::uint64_t seed = test::fuzz_seed(0xacc1);
  SCOPED_TRACE("seed=" + test::hex_seed(seed));
  util::Rng rng(seed);
  const auto trees = test::random_collection(taxa, 10, 3, rng);

  OracleOptions opts;
  opts.seed = seed;
  const OracleReport report = cross_check(trees, {}, opts);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.trees, 10u);
  EXPECT_GT(report.cells_checked, 0u);

  // Binary workload: every engine family must have run, including Day.
  EXPECT_TRUE(ran_engine(report, "sequential"));
  EXPECT_TRUE(ran_engine(report, "day"));
  EXPECT_TRUE(ran_engine(report, "hashrf/exact"));
  EXPECT_TRUE(ran_engine(report, "bfhrf/span/t1"));
  EXPECT_TRUE(ran_engine(report, "bfhrf/compressed-keys"));
  for (const std::size_t t : opts.thread_counts) {
    const std::string label = "bfhrf/stream-newick/t" + std::to_string(t);
    EXPECT_TRUE(ran_engine(report, label)) << label;
  }
}

TEST(OracleTest, DayEngineIsSkippedOnMultifurcatingCollections) {
  const auto taxa = TaxonSet::make_numbered(12);
  util::Rng rng(0xacc2);
  std::vector<Tree> trees;
  for (int i = 0; i < 6; ++i) {
    trees.push_back(sim::multifurcating_tree(taxa, rng, 0.4));
  }
  const OracleReport report = cross_check(trees, {}, {});
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_FALSE(ran_engine(report, "day"));
  EXPECT_TRUE(ran_engine(report, "sequential"));
}

TEST(OracleTest, SplitWorkloadChecksQueryAverages) {
  const auto taxa = TaxonSet::make_numbered(10);
  const std::uint64_t seed = test::fuzz_seed(0xacc3);
  SCOPED_TRACE("seed=" + test::hex_seed(seed));
  util::Rng rng(seed);
  const auto reference = test::random_collection(taxa, 8, 2, rng);
  const auto queries = test::independent_collection(taxa, 5, rng);

  OracleOptions opts;
  opts.seed = seed;
  const OracleReport report = cross_check(reference, queries, opts);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.trees, 13u);
}

TEST(OracleTest, SummaryEchoesTheSeedForReplay) {
  OracleReport report;
  report.seed = 0xBEEF;
  report.divergences.push_back({"e", "b", 1, 2, 3.0, 4.0});
  const std::string s = report.summary();
  EXPECT_NE(s.find("0xBEEF"), std::string::npos) << s;
  EXPECT_NE(s.find("--seed=0xBEEF"), std::string::npos) << s;
}

TEST(OracleTest, MatrixOnlyCheckCoversEngineFamilies) {
  const auto taxa = TaxonSet::make_numbered(9);
  util::Rng rng(0xacc4);
  const auto trees = test::random_collection(taxa, 6, 2, rng);
  const OracleReport report = cross_check_matrix(trees, {});
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_TRUE(ran_engine(report, "all_pairs/dense/t2"));
  EXPECT_TRUE(ran_engine(report, "all_pairs/sparse/t2"));
  EXPECT_TRUE(ran_engine(report, "bfhrf/compressed-keys"));
}

TEST(OracleTest, IncludeTrivialModeAgreesToo) {
  const auto taxa = TaxonSet::make_numbered(8);
  util::Rng rng(0xacc5);
  const auto trees = test::random_collection(taxa, 6, 2, rng);
  OracleOptions opts;
  opts.include_trivial = true;
  const OracleReport report = cross_check(trees, {}, opts);
  EXPECT_TRUE(report.ok()) << report.summary();
}

}  // namespace
}  // namespace bfhrf::qc
