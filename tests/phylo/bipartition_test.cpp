#include "phylo/bipartition.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "phylo/newick.hpp"
#include "phylo/vector_codec.hpp"
#include "support/test_util.hpp"
#include "util/rng.hpp"

namespace bfhrf::phylo {
namespace {

std::set<std::string> bip_strings(const BipartitionSet& s) {
  std::set<std::string> out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    out.insert(s.bitset(i).to_string());
  }
  return out;
}

TEST(BipartitionTest, PaperWorkedExample) {
  // Paper §II-B: T = ((A,B),(C,D)), T' = ((D,B),(C,A)). Each has exactly one
  // non-trivial bipartition and they differ, so RF(T,T') = 2 (Equation 1).
  auto taxa = std::make_shared<TaxonSet>(
      std::vector<std::string>{"A", "B", "C", "D"});
  const Tree t = parse_newick("((A,B),(C,D));", taxa);
  const Tree tp = parse_newick("((D,B),(C,A));", taxa);

  const auto bt = extract_bipartitions(t);
  const auto btp = extract_bipartitions(tp);
  // Canonical side excludes taxon A (bit 0), printed A,B,C,D left->right.
  EXPECT_EQ(bip_strings(bt), (std::set<std::string>{"0011"}));
  EXPECT_EQ(bip_strings(btp), (std::set<std::string>{"0101"}));
  EXPECT_EQ(BipartitionSet::symmetric_difference_size(bt, btp), 2u);
  EXPECT_EQ(BipartitionSet::symmetric_difference_size(bt, bt), 0u);
}

TEST(BipartitionTest, CountsMatchTheory) {
  // Unrooted binary tree on n taxa: n-3 non-trivial, 2n-3 with trivial.
  const auto taxa = TaxonSet::make_numbered(20);
  util::Rng rng(5);
  for (int rep = 0; rep < 10; ++rep) {
    const Tree t = sim::uniform_tree(taxa, rng);
    EXPECT_EQ(extract_bipartitions(t).size(), 20u - 3);
    EXPECT_EQ(extract_bipartitions(
                  t, BipartitionOptions{.include_trivial = true})
                  .size(),
              2u * 20 - 3);
  }
}

TEST(BipartitionTest, RootedRepresentationGivesSameSplits) {
  // The same unrooted topology parsed rooted vs unrooted must agree.
  auto taxa = std::make_shared<TaxonSet>(
      std::vector<std::string>{"A", "B", "C", "D", "E"});
  const Tree rooted = parse_newick("((A,B),((C,D),E));", taxa);
  const Tree unrooted = parse_newick("(A,B,((C,D),E));", taxa);
  EXPECT_EQ(bip_strings(extract_bipartitions(rooted)),
            bip_strings(extract_bipartitions(unrooted)));
}

TEST(BipartitionTest, RerootingInvariance) {
  // Any rotation of the Newick string around the same topology yields the
  // same canonical bipartition set.
  auto taxa = std::make_shared<TaxonSet>(
      std::vector<std::string>{"A", "B", "C", "D", "E", "F"});
  const char* forms[] = {
      "(((A,B),C),(D,(E,F)));",
      "((A,B),C,(D,(E,F)));",
      "((E,F),D,(C,(A,B)));",
      "(A,B,(C,((E,F),D)));",
  };
  std::set<std::string> first;
  for (const char* nwk : forms) {
    const Tree t = parse_newick(nwk, taxa);
    const auto strs = bip_strings(extract_bipartitions(t));
    if (first.empty()) {
      first = strs;
    } else {
      EXPECT_EQ(strs, first) << nwk;
    }
  }
  EXPECT_EQ(first.size(), 3u);  // n-3 = 3
}

TEST(BipartitionTest, CanonicalBitOfLowestTaxonIsZero) {
  const auto taxa = TaxonSet::make_numbered(30);
  util::Rng rng(7);
  const Tree t = sim::yule_tree(taxa, rng);
  const auto bips = extract_bipartitions(t);
  for (std::size_t i = 0; i < bips.size(); ++i) {
    EXPECT_FALSE(bips.bitset(i).test(0));
  }
}

TEST(BipartitionTest, MultifurcatingTreeHasFewerSplits) {
  const auto taxa = TaxonSet::make_numbered(24);
  util::Rng rng(9);
  const Tree star = [&] {
    Tree t(taxa);
    const NodeId root = t.add_root();
    for (std::size_t i = 0; i < 24; ++i) {
      t.add_leaf(root, static_cast<TaxonId>(i));
    }
    return t;
  }();
  EXPECT_EQ(extract_bipartitions(star).size(), 0u);

  const Tree multi = sim::multifurcating_tree(taxa, rng, 0.5);
  const auto count = extract_bipartitions(multi).size();
  EXPECT_LT(count, 24u - 3);
}

TEST(BipartitionTest, ContainsFindsAllMembers) {
  const auto taxa = TaxonSet::make_numbered(40);
  util::Rng rng(13);
  const Tree a = sim::uniform_tree(taxa, rng);
  const Tree b = sim::uniform_tree(taxa, rng);
  const auto ba = extract_bipartitions(a);
  const auto bb = extract_bipartitions(b);
  std::size_t common = 0;
  for (std::size_t i = 0; i < ba.size(); ++i) {
    EXPECT_TRUE(ba.contains(ba[i]));
    common += bb.contains(ba[i]) ? std::size_t{1} : std::size_t{0};
  }
  EXPECT_EQ(common, BipartitionSet::intersection_size(ba, bb));
}

TEST(BipartitionTest, SymmetricDifferenceIsSymmetric) {
  const auto taxa = TaxonSet::make_numbered(50);
  util::Rng rng(17);
  const Tree a = sim::yule_tree(taxa, rng);
  const Tree b = sim::yule_tree(taxa, rng);
  const auto ba = extract_bipartitions(a);
  const auto bb = extract_bipartitions(b);
  EXPECT_EQ(BipartitionSet::symmetric_difference_size(ba, bb),
            BipartitionSet::symmetric_difference_size(bb, ba));
}

TEST(BipartitionTest, LeafMaskCoversTreeTaxa) {
  const auto taxa = TaxonSet::make_numbered(15);
  util::Rng rng(19);
  const Tree t = sim::uniform_tree(taxa, rng);
  const auto bips = extract_bipartitions(t);
  EXPECT_EQ(bips.leaf_mask().count(), 15u);
  EXPECT_EQ(bips.n_bits(), 15u);
}

TEST(BipartitionTest, AppendFinalizeDeduplicates) {
  BipartitionSet s(8);
  util::DynamicBitset a(8);
  a.set(2);
  a.set(3);
  util::DynamicBitset b(8);
  b.set(4);
  s.append(a.words());
  s.append(b.words());
  s.append(a.words());
  s.finalize();
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(a.words()));
  EXPECT_TRUE(s.contains(b.words()));
  // Sorted order.
  EXPECT_LT(util::compare_words(s[0], s[1]), 0);
}

TEST(BipartitionTest, CanonicalizeFlipsOnlyWhenLowestSet) {
  util::DynamicBitset universe(6);
  universe.flip_all();
  util::DynamicBitset m = util::DynamicBitset::from_string("110000");
  canonicalize_bipartition(m, universe);
  EXPECT_EQ(m.to_string(), "001111");
  canonicalize_bipartition(m, universe);  // idempotent once canonical
  EXPECT_EQ(m.to_string(), "001111");
}

TEST(BipartitionTest, CanonicalizeRespectsPartialLeafMask) {
  // Universe of 6 but the tree only contains taxa {1,2,4}: complementation
  // is relative to the tree's own leaf set.
  const util::DynamicBitset leaf_mask =
      util::DynamicBitset::from_string("011010");
  util::DynamicBitset m = util::DynamicBitset::from_string("010000");
  canonicalize_bipartition(m, leaf_mask);  // bit 1 (lowest leaf) set -> flip
  EXPECT_EQ(m.to_string(), "001010");
}

TEST(BipartitionTest, CompatibilityCases) {
  util::DynamicBitset universe(8);
  universe.flip_all();
  const auto bs = [](const char* s) {
    return util::DynamicBitset::from_string(s);
  };
  // Nested.
  EXPECT_TRUE(bipartitions_compatible(bs("00000011"), bs("00001111"),
                                      universe));
  // Disjoint.
  EXPECT_TRUE(bipartitions_compatible(bs("00000011"), bs("00111100"),
                                      universe));
  // Complementary union == universe.
  EXPECT_TRUE(bipartitions_compatible(bs("01110000"), bs("10001111"),
                                      universe));
  // Properly crossing: intersect, neither nested, union != universe.
  EXPECT_FALSE(
      bipartitions_compatible(bs("00000110"), bs("00000011"), universe));
}

TEST(BipartitionTest, SplitsOfATreeArePairwiseCompatible) {
  const auto taxa = TaxonSet::make_numbered(16);
  util::Rng rng(23);
  const Tree t = sim::uniform_tree(taxa, rng);
  const auto bips = extract_bipartitions(t);
  const auto& mask = bips.leaf_mask();
  for (std::size_t i = 0; i < bips.size(); ++i) {
    for (std::size_t j = i + 1; j < bips.size(); ++j) {
      EXPECT_TRUE(
          bipartitions_compatible(bips.bitset(i), bips.bitset(j), mask));
    }
  }
}

class BipartitionSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BipartitionSweep, BinaryTreeCountAcrossSizes) {
  const std::size_t n = GetParam();
  const auto taxa = TaxonSet::make_numbered(n);
  util::Rng rng(n);
  const Tree t = sim::yule_tree(taxa, rng);
  EXPECT_EQ(extract_bipartitions(t).size(), n - 3);
  const Tree t2 = sim::caterpillar_tree(taxa, rng);
  EXPECT_EQ(extract_bipartitions(t2).size(), n - 3);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BipartitionSweep,
                         ::testing::Values(4, 5, 8, 16, 48, 63, 64, 65, 100,
                                           144, 250, 513));

TEST(BipartitionTest, CrossWordBoundarySplit) {
  // 70 taxa: splits straddle the 64-bit word boundary.
  const auto taxa = TaxonSet::make_numbered(70);
  util::Rng rng(29);
  const Tree a = sim::uniform_tree(taxa, rng);
  const Tree b = sim::uniform_tree(taxa, rng);
  const auto ba = extract_bipartitions(a);
  EXPECT_EQ(ba.size(), 67u);
  EXPECT_EQ(ba.words_per_bipartition(), 2u);
  // Sanity: symmetric difference with self is 0, with other <= 2(n-3).
  EXPECT_EQ(BipartitionSet::symmetric_difference_size(ba, ba), 0u);
  const auto bb = extract_bipartitions(b);
  EXPECT_LE(BipartitionSet::symmetric_difference_size(ba, bb), 2u * 67);
}

TEST(BipartitionTest, UnsortedExtractionMatchesSortedSplitSet) {
  // The sort-free hot path (BipartitionOptions::sorted = false) must yield
  // exactly the same multiset of canonical splits, duplicate-free, across
  // tree shapes and key widths.
  const BipartitionOptions unsorted{.sorted = false};
  for (const std::size_t n : {std::size_t{5}, std::size_t{16},
                              std::size_t{70}, std::size_t{144}}) {
    const auto taxa = TaxonSet::make_numbered(n);
    util::Rng rng(n);
    for (int rep = 0; rep < 5; ++rep) {
      const Tree t = rep % 2 == 0 ? sim::uniform_tree(taxa, rng)
                                  : sim::yule_tree(taxa, rng);
      const auto expect = extract_bipartitions(t);
      const auto fast = extract_bipartitions(t, unsorted);
      EXPECT_EQ(fast.size(), expect.size()) << "n=" << n << " rep=" << rep;
      const auto strings = bip_strings(fast);
      EXPECT_EQ(strings.size(), fast.size()) << "duplicate split, n=" << n;
      EXPECT_EQ(strings, bip_strings(expect)) << "n=" << n << " rep=" << rep;
    }
  }
}

TEST(BipartitionTest, UnsortedExtractionDedupsDegree2Root) {
  // The two half-edges of a rooted-binary root describe one unrooted edge;
  // the unsorted path must drop one structurally (finalize isn't run).
  auto taxa = std::make_shared<TaxonSet>(
      std::vector<std::string>{"A", "B", "C", "D"});
  const Tree t = parse_newick("((A,B),(C,D));", taxa);
  const auto fast =
      extract_bipartitions(t, BipartitionOptions{.sorted = false});
  EXPECT_EQ(fast.size(), 1u);
  EXPECT_EQ(bip_strings(fast), (std::set<std::string>{"0011"}));

  const BipartitionOptions trivial_unsorted{.include_trivial = true,
                                            .sorted = false};
  const auto triv = extract_bipartitions(t, trivial_unsorted);
  EXPECT_EQ(triv.size(), 2u * 4 - 3);
  EXPECT_EQ(bip_strings(triv),
            bip_strings(extract_bipartitions(
                t, BipartitionOptions{.include_trivial = true})));
}

TEST(BipartitionTest, UnsortedExtractionFallsBackOnUnaryNodes) {
  // A unary node replicates its child's mask, which the structural dedup
  // doesn't cover — such trees must fall back to the sorted finalize path
  // (the parser suppresses unary nodes, so build one directly).
  const auto taxa = TaxonSet::make_numbered(6);
  Tree t(taxa);
  const NodeId root = t.add_root();
  (void)t.add_leaf(root, 0);
  (void)t.add_leaf(root, 1);
  const NodeId unary = t.add_child(root);
  const NodeId inner = t.add_child(unary);  // unary -> inner: equal masks
  (void)t.add_leaf(inner, 2);
  (void)t.add_leaf(inner, 3);
  const NodeId inner2 = t.add_child(inner);
  (void)t.add_leaf(inner2, 4);
  (void)t.add_leaf(inner2, 5);

  const auto expect = extract_bipartitions(t);
  const auto fast =
      extract_bipartitions(t, BipartitionOptions{.sorted = false});
  EXPECT_EQ(fast.size(), expect.size());
  const auto strings = bip_strings(fast);
  EXPECT_EQ(strings.size(), fast.size()) << "duplicate split leaked through";
  EXPECT_EQ(strings, bip_strings(expect));
}

/// FNV-1a continued over a set's split count and its arena's bytes, in
/// emission order: a fixed hash that owes nothing to the engine's own.
std::uint64_t fnv1a(std::uint64_t h, const BipartitionSet& set) {
  const auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h = (h ^ ((word >> (8 * byte)) & 0xFF)) * 0x100000001b3ULL;
    }
  };
  mix(set.size());
  for (const std::uint64_t w : set.arena_view()) {
    mix(w);
  }
  return h;
}

TEST(BipartitionTest, UnsortedEmissionOrderIsPinned) {
  // Index bytes depend on the order splits reach the store, so the
  // unsorted arenas of the Tree and vector extractors are pinned, order
  // included. Uniform and multifurcating trees number nodes out of
  // topological order (split_edge_insert_leaf puts a new internal node
  // after its child), and n = 65 and 130 give 2- and 3-word keys. The
  // vector extractor reads the rows of the binary (uniform) trees. An
  // extractor change that moves a split fails here.
  struct Pin {
    bool include_trivial;
    std::uint64_t tree_fnv;
    std::uint64_t vector_fnv;
  };
  static constexpr Pin kPins[] = {
      {false, 0x453187ae2106e9efULL, 0x4cd7811a125bf59cULL},
      {true, 0x225e1a73343f0563ULL, 0x0bb26a82bf481848ULL},
  };
  util::Rng rng(0x0DE5);
  std::vector<Tree> uniform;
  std::vector<Tree> multifurcating;
  for (const std::size_t n : {std::size_t{12}, std::size_t{65},
                              std::size_t{130}}) {
    const auto taxa = TaxonSet::make_numbered(n);
    for (int rep = 0; rep < 6; ++rep) {
      uniform.push_back(sim::uniform_tree(taxa, rng));
      multifurcating.push_back(sim::multifurcating_tree(taxa, rng, 0.4));
    }
  }
  BipartitionExtractor extractor;
  VectorBipartitionExtractor vector_extractor;
  BipartitionSet set;
  for (const Pin& pin : kPins) {
    SCOPED_TRACE("include_trivial=" + std::to_string(pin.include_trivial));
    const BipartitionOptions opts{.include_trivial = pin.include_trivial,
                                  .sorted = false};
    std::uint64_t tree_fnv = 0xcbf29ce484222325ULL;
    std::uint64_t vector_fnv = 0xcbf29ce484222325ULL;
    for (const std::vector<Tree>* trees : {&uniform, &multifurcating}) {
      for (const Tree& t : *trees) {
        extractor.extract_into(t, opts, set);
        tree_fnv = fnv1a(tree_fnv, set);
      }
    }
    for (const Tree& t : uniform) {
      vector_extractor.extract_into(tree_to_vector(t), opts, set);
      vector_fnv = fnv1a(vector_fnv, set);
    }
    EXPECT_EQ(tree_fnv, pin.tree_fnv) << std::hex << "0x" << tree_fnv;
    EXPECT_EQ(vector_fnv, pin.vector_fnv) << std::hex << "0x" << vector_fnv;
  }
}

}  // namespace
}  // namespace bfhrf::phylo
