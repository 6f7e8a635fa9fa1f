#include "qc/metamorphic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/rf.hpp"
#include "qc/tree_ops.hpp"
#include "support/test_util.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bfhrf::qc {
namespace {

using phylo::TaxonId;
using phylo::TaxonSet;
using phylo::Tree;

TEST(MetamorphicTest, AllInvariantsHoldOnBinaryCollections) {
  const auto taxa = TaxonSet::make_numbered(16);
  const std::uint64_t seed = test::fuzz_seed(0x3e7a);
  SCOPED_TRACE("seed=" + test::hex_seed(seed));
  util::Rng rng(seed);
  const auto trees = test::random_collection(taxa, 10, 4, rng);

  InvariantOptions opts;
  opts.seed = seed;
  const InvariantReport report = check_invariants(trees, opts);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.invariants_run.size(), 8u);
  EXPECT_GT(report.checks, 0u);
}

TEST(MetamorphicTest, VectorCodecInvariantChecksBinaryCollections) {
  const auto taxa = TaxonSet::make_numbered(13);
  const std::uint64_t seed = test::fuzz_seed(0x3e7e);
  SCOPED_TRACE("seed=" + test::hex_seed(seed));
  util::Rng rng(seed);
  const auto trees = test::random_collection(taxa, 7, 5, rng);

  InvariantOptions opts;
  opts.seed = seed;
  opts.samples = trees.size();
  InvariantReport report;
  check_vector_codec(trees, rng, opts, report);
  EXPECT_TRUE(report.ok()) << report.summary();
  // Two per-tree checks plus the full pairwise matrix comparison.
  EXPECT_GE(report.checks, 2 * trees.size() +
                               trees.size() * (trees.size() - 1) / 2);
}

TEST(MetamorphicTest, AllInvariantsHoldOnMultifurcatingCollections) {
  const auto taxa = TaxonSet::make_numbered(14);
  const std::uint64_t seed = test::fuzz_seed(0x3e7b);
  SCOPED_TRACE("seed=" + test::hex_seed(seed));
  util::Rng rng(seed);
  std::vector<Tree> trees;
  for (int i = 0; i < 8; ++i) {
    trees.push_back(sim::multifurcating_tree(taxa, rng, 0.35));
  }
  InvariantOptions opts;
  opts.seed = seed;
  const InvariantReport report = check_invariants(trees, opts);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(MetamorphicTest, SummaryEchoesSeedOnFailure) {
  InvariantReport report;
  report.seed = 0xFACE;
  report.failures.push_back({"pruning", "synthetic"});
  const std::string s = report.summary();
  EXPECT_NE(s.find("pruning: synthetic"), std::string::npos) << s;
  EXPECT_NE(s.find("--seed=0xFACE"), std::string::npos) << s;
}

// --- tree_ops building blocks -----------------------------------------

TEST(TreeOpsTest, RelabelingPreservesRfDistances) {
  const auto taxa = TaxonSet::make_numbered(12);
  util::Rng rng(0x3e7c);
  const auto trees = test::random_collection(taxa, 4, 3, rng);

  std::vector<TaxonId> perm(taxa->size());
  std::iota(perm.begin(), perm.end(), TaxonId{0});
  rng.shuffle(perm);

  const Tree a = relabel_taxa(trees[0], perm);
  const Tree b = relabel_taxa(trees[1], perm);
  EXPECT_EQ(core::rf_distance(a, b), core::rf_distance(trees[0], trees[1]));
}

TEST(TreeOpsTest, RerootingIsRfInvisible) {
  const auto taxa = TaxonSet::make_numbered(10);
  util::Rng rng(0x3e7d);
  const Tree t = sim::yule_tree(taxa, rng);
  for (const auto node : internal_nonroot_nodes(t)) {
    const Tree rerooted = reroot_at(t, node);
    rerooted.validate();
    EXPECT_EQ(core::rf_distance(t, rerooted), 0u);
  }
}

TEST(TreeOpsTest, RerootingAtALeafIsRejected) {
  const auto taxa = TaxonSet::make_numbered(6);
  util::Rng rng(0x3e7e);
  const Tree t = sim::yule_tree(taxa, rng);
  EXPECT_THROW(reroot_at(t, t.leaves().front()), InvalidArgument);
}

TEST(TreeOpsTest, CollapseRemovesExactlyOneBipartition) {
  const auto taxa = TaxonSet::make_numbered(10);
  util::Rng rng(0x3e7f);
  const Tree t = sim::yule_tree(taxa, rng);
  const auto internals = internal_nonroot_nodes(t);
  ASSERT_FALSE(internals.empty());
  const Tree collapsed = collapse_internal_node(t, internals.front());
  collapsed.validate();
  EXPECT_EQ(collapsed.num_leaves(), t.num_leaves());
  EXPECT_EQ(core::rf_distance(t, collapsed), 1u);
}

TEST(TreeOpsTest, RiffleCaterpillarSaturatesRf) {
  const auto taxa = TaxonSet::make_numbered(9);
  std::vector<TaxonId> identity(taxa->size());
  std::iota(identity.begin(), identity.end(), TaxonId{0});
  const Tree a = caterpillar_with_order(taxa, identity);
  const Tree b = caterpillar_with_order(taxa, riffle_order(taxa->size()));
  EXPECT_EQ(core::rf_distance(a, b), 2u * (taxa->size() - 3));
}

TEST(TreeOpsTest, RiffleOrderIsAPermutation) {
  for (std::size_t n : {4u, 5u, 8u, 13u}) {
    auto order = riffle_order(n);
    ASSERT_EQ(order.size(), n);
    std::sort(order.begin(), order.end());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(order[i], static_cast<TaxonId>(i));
    }
  }
}

}  // namespace
}  // namespace bfhrf::qc
