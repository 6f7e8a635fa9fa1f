// Streaming-engine equivalence: the pipelined engine over every payload
// (span pointers, streamed trees) must produce per-tree averages
// BIT-IDENTICAL to Algorithm 1 (core/sequential_rf, which shares no code
// with BFHRF) for classic RF — all terms are integer-valued — regardless of
// thread count, store kind, or pre-sizing hints.
#include <gtest/gtest.h>

#include <vector>

#include "core/bfhrf.hpp"
#include "core/sequential_rf.hpp"
#include "core/tree_source.hpp"
#include "phylo/taxon_set.hpp"
#include "support/test_util.hpp"
#include "util/rng.hpp"

namespace bfhrf::core {
namespace {

using phylo::TaxonSet;
using phylo::Tree;

struct Collections {
  std::vector<Tree> reference;
  std::vector<Tree> queries;
  std::size_t n_bits = 0;
};

Collections make_collections(std::size_t n_taxa, std::size_t r,
                             std::size_t q, std::uint64_t seed) {
  const auto taxa = TaxonSet::make_numbered(n_taxa);
  util::Rng rng(seed);
  Collections c;
  c.reference = test::random_collection(taxa, r, 4, rng);
  c.queries = test::random_collection(taxa, q, 6, rng);
  c.n_bits = taxa->size();
  return c;
}

std::vector<double> run_engine(const Collections& c, BfhrfOptions opts,
                               bool stream) {
  Bfhrf engine(c.n_bits, opts);
  if (stream) {
    SpanTreeSource ref_source(c.reference);
    SpanTreeSource query_source(c.queries);
    engine.build(ref_source);
    return engine.query(query_source);
  }
  engine.build(c.reference);
  return engine.query(c.queries);
}

/// Baseline: Algorithm 1, the pairwise tree-vs-tree average.
std::vector<double> sequential_baseline(const Collections& c) {
  return sequential_avg_rf(c.queries, c.reference).avg_rf;
}

TEST(BfhrfStreamTest, PipelinedStreamMatchesSpanPathBitwise) {
  const Collections c = make_collections(18, 40, 13, 11);
  const auto expect = sequential_baseline(c);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    for (const bool stream : {false, true}) {
      const auto got =
          run_engine(c, BfhrfOptions{.threads = threads}, stream);
      ASSERT_EQ(got.size(), expect.size()) << "threads=" << threads;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], expect[i])
            << "threads=" << threads << " stream=" << stream << " query "
            << i;
      }
    }
  }
}

TEST(BfhrfStreamTest, ScratchReuseIsInvariant) {
  // Re-querying through the same engine (same warm per-worker scratch)
  // is stable: a warm extractor must not leak state from the previous tree.
  const Collections c = make_collections(20, 35, 11, 14);
  Bfhrf engine(c.n_bits, BfhrfOptions{.threads = 2});
  engine.build(c.reference);
  const auto first = engine.query(c.queries);
  const auto second = engine.query(c.queries);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << "query " << i;
  }
}

TEST(BfhrfStreamTest, BatchedQueryIsInvariant) {
  // The frequency_many prefetch path (raw store) and the virtual per-split
  // lookup (compressed store) must agree bitwise (classic RF terms are
  // integers in doubles), at 2-word and 1-word keys.
  for (const std::size_t n_taxa : {std::size_t{70}, std::size_t{24}}) {
    const Collections c = make_collections(n_taxa, 30, 9, 15);
    const auto batched = run_engine(c, BfhrfOptions{.threads = 1},
                                    /*stream=*/false);
    const auto per_split = run_engine(
        c, BfhrfOptions{.threads = 1, .compressed_keys = true},
        /*stream=*/false);
    ASSERT_EQ(batched.size(), per_split.size());
    for (std::size_t i = 0; i < batched.size(); ++i) {
      EXPECT_EQ(batched[i], per_split[i]) << "n=" << n_taxa << " query " << i;
    }
  }
}

TEST(BfhrfStreamTest, ExpectedUniqueHintDoesNotChangeResults) {
  const Collections c = make_collections(15, 30, 8, 17);
  const auto expect = sequential_baseline(c);

  Bfhrf sized(c.n_bits, BfhrfOptions{.threads = 2, .expected_unique = 4096});
  sized.build(c.reference);
  const auto got = sized.query(c.queries);
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expect[i]) << "query " << i;
  }
  // The hint pre-sizes; it must never undercount what was actually stored.
  EXPECT_EQ(sized.stats().unique_bipartitions,
            [&] {
              Bfhrf plain(c.n_bits, BfhrfOptions{.threads = 1});
              plain.build(c.reference);
              return plain.stats().unique_bipartitions;
            }());
}

TEST(BfhrfStreamTest, CompressedStoreStreamsThroughPipeline) {
  // Compressed stores have no frequency_many fast path; the pipeline must
  // still hold exactly.
  const Collections c = make_collections(17, 25, 7, 18);
  const auto expect = sequential_baseline(c);
  const auto got = run_engine(
      c, BfhrfOptions{.threads = 3, .compressed_keys = true},
      /*stream=*/true);
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expect[i]) << "query " << i;
  }
}

}  // namespace
}  // namespace bfhrf::core
