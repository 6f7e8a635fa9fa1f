#include "core/consensus.hpp"

#include <gtest/gtest.h>

#include "core/bfhrf.hpp"
#include "core/rf.hpp"
#include "phylo/bipartition.hpp"
#include "phylo/newick.hpp"
#include "support/test_util.hpp"
#include "util/rng.hpp"

namespace bfhrf::core {
namespace {

using phylo::TaxonSet;
using phylo::Tree;

Tree consensus_of(const std::vector<Tree>& trees, double threshold = 0.5) {
  Bfhrf engine(trees.front().taxa()->size());
  engine.build(trees);
  return consensus_tree(engine.store(), trees.size(), trees.front().taxa(),
                        ConsensusOptions{.threshold = threshold});
}

TEST(ConsensusTest, IdenticalTreesReproduceTopology) {
  const auto taxa = TaxonSet::make_numbered(16);
  util::Rng rng(1);
  const Tree t = sim::yule_tree(taxa, rng);
  const std::vector<Tree> trees(7, t);
  const Tree cons = consensus_of(trees);
  EXPECT_EQ(rf_distance(cons, t), 0u);
  EXPECT_EQ(cons.num_leaves(), 16u);
}

TEST(ConsensusTest, MajoritySplitsAppear) {
  auto taxa = std::make_shared<TaxonSet>(
      std::vector<std::string>{"A", "B", "C", "D", "E"});
  std::vector<Tree> trees;
  // {A,B} clade in 3 of 4 trees; {C,D} in 2 of 4.
  trees.push_back(phylo::parse_newick("((A,B),(C,D),E);", taxa));
  trees.push_back(phylo::parse_newick("((A,B),(C,E),D);", taxa));
  trees.push_back(phylo::parse_newick("((A,B),(D,E),C);", taxa));
  trees.push_back(phylo::parse_newick("((A,C),(B,D),E);", taxa));

  const Tree cons = consensus_of(trees);
  const auto bips = phylo::extract_bipartitions(cons);
  // {A,B}: canonical side excludes A -> mask {C,D,E} is... side {A,B}
  // flipped to exclude taxon 0 (A) -> {C,D,E} = 00111.
  bool found_ab = false;
  for (std::size_t i = 0; i < bips.size(); ++i) {
    found_ab |= (bips.bitset(i).to_string() == "00111");
  }
  EXPECT_TRUE(found_ab);
  // {C,D} appears in only 2/4 -> not in the strict-majority consensus.
  for (std::size_t i = 0; i < bips.size(); ++i) {
    EXPECT_NE(bips.bitset(i).to_string(), "00110");
  }
}

TEST(ConsensusTest, StarWhenNoMajority) {
  auto taxa = std::make_shared<TaxonSet>(
      std::vector<std::string>{"A", "B", "C", "D"});
  std::vector<Tree> trees;
  trees.push_back(phylo::parse_newick("((A,B),(C,D));", taxa));
  trees.push_back(phylo::parse_newick("((A,C),(B,D));", taxa));
  trees.push_back(phylo::parse_newick("((A,D),(B,C));", taxa));
  const Tree cons = consensus_of(trees);
  EXPECT_EQ(phylo::extract_bipartitions(cons).size(), 0u);  // star tree
  EXPECT_EQ(cons.num_leaves(), 4u);
}

TEST(ConsensusTest, GreedyResolvesMoreThanMajority) {
  auto taxa = std::make_shared<TaxonSet>(
      std::vector<std::string>{"A", "B", "C", "D", "E", "F"});
  std::vector<Tree> trees;
  trees.push_back(phylo::parse_newick("(((A,B),(C,D)),(E,F));", taxa));
  trees.push_back(phylo::parse_newick("(((A,B),C),(D,(E,F)));", taxa));
  trees.push_back(phylo::parse_newick("(((A,C),B),((D,E),F));", taxa));
  trees.push_back(phylo::parse_newick("(((A,C),D),(B,(E,F)));", taxa));

  const Tree majority = consensus_of(trees, 0.5);
  const Tree greedy = consensus_of(trees, 0.0);
  EXPECT_GE(phylo::extract_bipartitions(greedy).size(),
            phylo::extract_bipartitions(majority).size());
  greedy.validate();
  // Greedy output must still be a valid tree whose splits are compatible.
  const auto gb = phylo::extract_bipartitions(greedy);
  for (std::size_t i = 0; i < gb.size(); ++i) {
    for (std::size_t j = i + 1; j < gb.size(); ++j) {
      EXPECT_TRUE(phylo::bipartitions_compatible(gb.bitset(i), gb.bitset(j),
                                                 gb.leaf_mask()));
    }
  }
}

TEST(ConsensusTest, ConsensusMinimizesAvgRfAmongCandidates) {
  // The majority-rule tree should score no worse (in average RF against the
  // collection) than a random tree — the "best summary" intuition that
  // motivates the paper's search workloads.
  const auto taxa = TaxonSet::make_numbered(12);
  util::Rng rng(2);
  const auto trees = test::random_collection(taxa, 30, 2, rng);
  const Tree cons = consensus_of(trees);

  Bfhrf engine(taxa->size());
  engine.build(trees);
  const double cons_score = engine.query_one(cons);
  double random_total = 0;
  constexpr int kRandom = 10;
  for (int i = 0; i < kRandom; ++i) {
    random_total += engine.query_one(sim::uniform_tree(taxa, rng));
  }
  EXPECT_LE(cons_score, random_total / kRandom);
}

TEST(ConsensusTest, ThresholdOneKeepsOnlyUnanimousSplits) {
  const auto taxa = TaxonSet::make_numbered(10);
  util::Rng rng(3);
  const Tree base = sim::yule_tree(taxa, rng);
  std::vector<Tree> trees(6, base);
  sim::perturb(trees[5], rng, 4);  // one deviant tree

  // threshold just under 1.0: only splits in all 6 trees survive.
  const Tree cons = consensus_of(trees, 0.99);
  const auto cb = phylo::extract_bipartitions(cons);
  const auto bb = phylo::extract_bipartitions(base);
  const auto db = phylo::extract_bipartitions(trees[5]);
  const std::size_t unanimous =
      phylo::BipartitionSet::intersection_size(bb, db);
  EXPECT_EQ(cb.size(), unanimous);
}

TEST(ConsensusTest, EmptyCollectionThrows) {
  const auto taxa = TaxonSet::make_numbered(5);
  EXPECT_THROW((void)consensus_tree(BfhIndexView{}, 0, taxa),
               InvalidArgument);
}

TEST(ConsensusTest, ValidTreeOnLargeNoisyCollection) {
  const auto taxa = TaxonSet::make_numbered(50);
  util::Rng rng(4);
  const auto trees = test::random_collection(taxa, 100, 8, rng);
  const Tree cons = consensus_of(trees);
  cons.validate();
  EXPECT_EQ(cons.num_leaves(), 50u);
  // All splits must be mutually compatible (it is a tree, so trivially so,
  // but extraction must also succeed).
  (void)phylo::extract_bipartitions(cons);
}

}  // namespace
}  // namespace bfhrf::core
