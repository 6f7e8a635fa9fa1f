#include "core/bfhrf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/sequential_rf.hpp"
#include "core/tree_source.hpp"
#include "phylo/newick.hpp"
#include "support/test_util.hpp"
#include "util/rng.hpp"

namespace bfhrf::core {
namespace {

using phylo::TaxonSet;
using phylo::Tree;

/// Ground truth: brute-force average RF via pairwise distances.
std::vector<double> brute_force(std::span<const Tree> queries,
                                std::span<const Tree> reference) {
  std::vector<double> out;
  out.reserve(queries.size());
  for (const auto& q : queries) {
    double sum = 0;
    for (const auto& r : reference) {
      sum += static_cast<double>(rf_distance(q, r));
    }
    out.push_back(sum / static_cast<double>(reference.size()));
  }
  return out;
}

TEST(BfhrfTest, MatchesBruteForceOnSmallCollection) {
  const auto taxa = TaxonSet::make_numbered(12);
  util::Rng rng(1);
  const auto reference = test::random_collection(taxa, 20, 3, rng);
  const auto queries = test::random_collection(taxa, 7, 5, rng);

  const auto expect = brute_force(queries, reference);
  const auto got = bfhrf_average_rf(queries, reference);
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i], expect[i]) << "query " << i;
  }
}

TEST(BfhrfTest, QIsRMatchesBruteForce) {
  // The paper's experimental setting: Q == R.
  const auto taxa = TaxonSet::make_numbered(10);
  util::Rng rng(2);
  const auto trees = test::random_collection(taxa, 15, 4, rng);
  const auto expect = brute_force(trees, trees);
  const auto got = bfhrf_average_rf(trees, trees);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i], expect[i]);
  }
}

TEST(BfhrfTest, AgreesWithSequentialRf) {
  const auto taxa = TaxonSet::make_numbered(16);
  util::Rng rng(3);
  const auto reference = test::random_collection(taxa, 30, 4, rng);
  const auto queries = test::independent_collection(taxa, 9, rng);

  const auto seq = sequential_avg_rf(queries, reference);
  const auto bfh = bfhrf_average_rf(queries, reference);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_DOUBLE_EQ(bfh[i], seq.avg_rf[i]);
  }
}

class BfhrfThreadSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BfhrfThreadSweep, ThreadCountDoesNotChangeResults) {
  const std::size_t threads = GetParam();
  const auto taxa = TaxonSet::make_numbered(14);
  util::Rng rng(4);
  const auto reference = test::random_collection(taxa, 25, 3, rng);
  const auto queries = test::random_collection(taxa, 11, 6, rng);

  const auto base = bfhrf_average_rf(queries, reference, {.threads = 1});
  const auto par =
      bfhrf_average_rf(queries, reference, {.threads = threads});
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_DOUBLE_EQ(par[i], base[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, BfhrfThreadSweep,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

TEST(BfhrfTest, StreamingBuildMatchesInMemory) {
  const auto taxa = TaxonSet::make_numbered(12);
  util::Rng rng(5);
  const auto reference = test::random_collection(taxa, 40, 3, rng);
  const auto queries = test::random_collection(taxa, 6, 4, rng);

  Bfhrf in_memory(taxa->size());
  in_memory.build(reference);

  Bfhrf streaming(taxa->size(), {.threads = 2});
  const test::TempNewick file("reference", reference);
  FileTreeSource source(file.path(), taxa);
  streaming.build(source);

  EXPECT_EQ(streaming.stats().reference_trees,
            in_memory.stats().reference_trees);
  EXPECT_EQ(streaming.stats().unique_bipartitions,
            in_memory.stats().unique_bipartitions);
  EXPECT_EQ(streaming.stats().total_bipartitions,
            in_memory.stats().total_bipartitions);

  const auto a = in_memory.query(queries);
  const auto b = streaming.query(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]);
  }
}

TEST(BfhrfTest, StreamingQueryPreservesOrder) {
  const auto taxa = TaxonSet::make_numbered(12);
  util::Rng rng(6);
  const auto reference = test::random_collection(taxa, 20, 3, rng);
  const auto queries = test::random_collection(taxa, 33, 5, rng);

  Bfhrf engine(taxa->size(), {.threads = 3});
  engine.build(reference);
  const auto direct = engine.query(queries);
  const test::TempNewick file("queries", queries);
  FileTreeSource source(file.path(), taxa);
  const auto streamed = engine.query(source);
  ASSERT_EQ(streamed.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_DOUBLE_EQ(streamed[i], direct[i]);
  }
}

TEST(BfhrfTest, QueryOneMatchesBatch) {
  const auto taxa = TaxonSet::make_numbered(10);
  util::Rng rng(7);
  const auto reference = test::random_collection(taxa, 12, 3, rng);
  const auto queries = test::random_collection(taxa, 5, 3, rng);
  Bfhrf engine(taxa->size());
  engine.build(reference);
  const auto batch = engine.query(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_DOUBLE_EQ(engine.query_one(queries[i]), batch[i]);
  }
}

TEST(BfhrfTest, IdenticalCollectionsGiveZero) {
  const auto taxa = TaxonSet::make_numbered(15);
  util::Rng rng(8);
  const Tree one = sim::yule_tree(taxa, rng);
  const std::vector<Tree> reference(10, one);
  Bfhrf engine(taxa->size());
  engine.build(reference);
  EXPECT_DOUBLE_EQ(engine.query_one(one), 0.0);
}

TEST(BfhrfTest, DisjointSplitsGiveMaximum) {
  // Caterpillar vs its "reversed-pairing" tree share no non-trivial splits
  // in this fixed example; average RF equals 2(n-3).
  auto taxa = std::make_shared<TaxonSet>(
      std::vector<std::string>{"A", "B", "C", "D", "E", "F"});
  const Tree a = phylo::parse_newick("(((((A,B),C),D),E),F);", taxa);
  const Tree b = phylo::parse_newick("(((((A,F),C),E),B),D);", taxa);
  const std::vector<Tree> reference(4, b);
  Bfhrf engine(taxa->size());
  engine.build(reference);
  const double d = engine.query_one(a);
  EXPECT_DOUBLE_EQ(d, static_cast<double>(rf_distance(a, b)));
}

TEST(BfhrfTest, StatsReflectCollection) {
  const auto taxa = TaxonSet::make_numbered(12);
  util::Rng rng(9);
  const auto reference = test::random_collection(taxa, 25, 2, rng);
  Bfhrf engine(taxa->size());
  engine.build(reference);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.reference_trees, 25u);
  // Binary trees on 12 taxa: 9 splits each.
  EXPECT_EQ(stats.total_bipartitions, 25u * 9);
  EXPECT_GE(stats.unique_bipartitions, 9u);
  EXPECT_LE(stats.unique_bipartitions, 25u * 9);
  EXPECT_GT(stats.hash_memory_bytes, 0u);
}

TEST(BfhrfTest, QueryBeforeBuildThrows) {
  const auto taxa = TaxonSet::make_numbered(8);
  util::Rng rng(10);
  const Tree t = sim::yule_tree(taxa, rng);
  const Bfhrf engine(taxa->size());
  EXPECT_THROW((void)engine.query_one(t), InvalidArgument);
}

TEST(BfhrfTest, UniverseWidthMismatchThrows) {
  const auto taxa = TaxonSet::make_numbered(8);
  util::Rng rng(11);
  const Tree t = sim::yule_tree(taxa, rng);
  Bfhrf engine(9);  // wrong width
  const std::vector<Tree> ref{t};
  EXPECT_THROW(engine.build(ref), InvalidArgument);
}

TEST(BfhrfTest, EmptyReferenceThrows) {
  EXPECT_THROW((void)bfhrf_average_rf({}, {}), InvalidArgument);
}

TEST(BfhrfTest, HalfSumNormHalvesValues) {
  const auto taxa = TaxonSet::make_numbered(12);
  util::Rng rng(12);
  const auto reference = test::random_collection(taxa, 10, 4, rng);
  const auto queries = test::random_collection(taxa, 4, 4, rng);
  const auto raw = bfhrf_average_rf(queries, reference);
  const auto half =
      bfhrf_average_rf(queries, reference, {.norm = RfNorm::HalfSum});
  for (std::size_t i = 0; i < raw.size(); ++i) {
    EXPECT_DOUBLE_EQ(half[i], raw[i] / 2.0);
  }
}

TEST(BfhrfTest, MaxScaledNormInUnitRange) {
  const auto taxa = TaxonSet::make_numbered(12);
  util::Rng rng(13);
  const auto reference = test::independent_collection(taxa, 10, rng);
  const auto queries = test::independent_collection(taxa, 5, rng);
  const auto scaled =
      bfhrf_average_rf(queries, reference, {.norm = RfNorm::MaxScaled});
  for (const double v : scaled) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(BfhrfTest, MultifurcatingTreesSupported) {
  const auto taxa = TaxonSet::make_numbered(14);
  util::Rng rng(14);
  std::vector<Tree> reference;
  for (int i = 0; i < 12; ++i) {
    reference.push_back(sim::multifurcating_tree(taxa, rng, 0.3));
  }
  std::vector<Tree> queries;
  for (int i = 0; i < 5; ++i) {
    queries.push_back(sim::multifurcating_tree(taxa, rng, 0.5));
  }
  const auto expect = brute_force(queries, reference);
  const auto got = bfhrf_average_rf(queries, reference, {.threads = 2});
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i], expect[i]);
  }
}

TEST(BfhrfTest, IncludeTrivialChangesNothingForFixedTaxa) {
  const auto taxa = TaxonSet::make_numbered(10);
  util::Rng rng(15);
  const auto reference = test::random_collection(taxa, 8, 3, rng);
  const auto queries = test::random_collection(taxa, 4, 3, rng);
  const auto without = bfhrf_average_rf(queries, reference);
  const auto with =
      bfhrf_average_rf(queries, reference, {.include_trivial = true});
  for (std::size_t i = 0; i < without.size(); ++i) {
    EXPECT_DOUBLE_EQ(with[i], without[i]);
  }
}

TEST(BfhrfTest, RepeatedTaxonRecordQueriesInLinearTime) {
  // A daemon request can feed query_newick a group of 100,000 leaves that
  // all name one taxon. When such a record went to a Tree parse,
  // appending each child by walking the sibling chain made that O(k^2),
  // and folding the repeats answered the record (7.0: all of its splits
  // trivial). A record that names a taxon twice is not a tree over its
  // leaves, so it is rejected, and must be rejected quickly.
  constexpr std::size_t kLeaves = 100'000;
  const auto taxa = TaxonSet::make_numbered(10);
  util::Rng rng(21);
  const auto reference = test::random_collection(taxa, 8, 3, rng);
  Bfhrf engine(taxa->size());
  engine.build(reference);
  std::string record = "(";
  for (std::size_t i = 0; i < kLeaves; ++i) {
    record += i == 0 ? "t0" : ",t0";
  }
  record += ");";
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)engine.query_newick(record, taxa), ParseError);
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  EXPECT_LT(took.count(), 5.0);
}

TEST(BfhrfTest, QueryNewickUnknownLabelLeavesTheNamespaceUnwritten) {
  // query_newick only reads its namespace. A record with a label outside
  // it used to be parsed into a Tree over that namespace, which, not
  // frozen, grew by the label before the width check threw; every later
  // record then failed the width check too.
  const auto taxa = TaxonSet::make_numbered(6);
  util::Rng rng(27);
  const std::vector<Tree> reference = test::random_collection(taxa, 8, 3, rng);
  Bfhrf engine(taxa->size());
  engine.build(reference);
  try {
    (void)engine.query_newick("((t0,t1),(t2,t3),(t4,NEW));", taxa);
    FAIL() << "an unknown label must throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("'NEW'"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(taxa->size(), 6u);
  EXPECT_FALSE(taxa->frozen());
  const std::string valid = "((t0,t1),(t2,t3),(t4,t5));";
  EXPECT_EQ(engine.query_newick(valid, taxa),
            engine.query_one(phylo::parse_newick(valid, taxa)));
  // A null or wrong-width namespace is refused before the text is read.
  EXPECT_THROW((void)engine.query_newick(valid, nullptr), InvalidArgument);
  EXPECT_THROW((void)engine.query_newick("((((;", TaxonSet::make_numbered(7)),
               InvalidArgument);
}

TEST(BfhrfTest, IncrementalBuildAccumulates) {
  // Stores are add-only, so a second build() is the only way to grow a
  // built engine: on every store shape (one table at 1 thread, shards
  // above), split builds must hold exactly what one build over the whole
  // collection holds.
  const auto taxa = TaxonSet::make_numbered(10);
  util::Rng rng(16);
  const auto all = test::random_collection(taxa, 20, 3, rng);
  const std::span<const Tree> first(all.data(), 12);
  const std::span<const Tree> second(all.data() + 12, 8);
  const auto queries = test::random_collection(taxa, 5, 4, rng);
  const InformationWeightedRf weighted(taxa->size());

  std::vector<BfhrfOptions> configs;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    configs.push_back({.threads = threads});
    // Variants shard like classic RF.
    configs.push_back({.threads = threads, .variant = &weighted});
  }
  for (const BfhrfOptions& opts : configs) {
    SCOPED_TRACE("threads=" + std::to_string(opts.threads) +
                 (opts.variant != nullptr ? " weighted" : ""));
    Bfhrf split_build(taxa->size(), opts);
    split_build.build(first);
    split_build.build(second);
    Bfhrf one_build(taxa->size(), opts);
    one_build.build(all);

    const BfhIndexView& split = split_build.store();
    const BfhIndexView& one = one_build.store();
    EXPECT_EQ(split.shard_count(), test::expected_shards(opts.threads));
    EXPECT_EQ(test::store_image(split), test::store_image(one));
    EXPECT_EQ(split.total_count(), one.total_count());
    EXPECT_EQ(split.total_weight(), one.total_weight());
    EXPECT_EQ(split_build.stats().reference_trees,
              one_build.stats().reference_trees);
    const auto a = split_build.query(queries);
    const auto b = one_build.query(queries);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << "query " << i;
    }
  }
}

}  // namespace
}  // namespace bfhrf::core
