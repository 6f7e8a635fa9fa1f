#include "core/compressed_hash.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/bfhrf.hpp"
#include "core/consensus.hpp"
#include "core/frequency_hash.hpp"
#include "core/rf.hpp"
#include "support/test_util.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bfhrf::core {
namespace {

using phylo::Tree;

util::DynamicBitset key(std::size_t n_bits, std::initializer_list<int> bits) {
  util::DynamicBitset b(n_bits);
  for (const int i : bits) {
    b.set(static_cast<std::size_t>(i));
  }
  return b;
}

TEST(CompressedHashTest, AddAndLookup) {
  CompressedFrequencyHash h(100);
  const auto a = key(100, {1, 2});
  const auto b = key(100, {64, 65});
  h.add(a.words());
  h.add(a.words());
  h.add(b.words(), 3);
  EXPECT_EQ(h.frequency(a.words()), 2u);
  EXPECT_EQ(h.frequency(b.words()), 3u);
  EXPECT_EQ(h.unique_count(), 2u);
  EXPECT_EQ(h.total_count(), 5u);
  EXPECT_EQ(h.frequency(key(100, {9}).words()), 0u);
}

TEST(CompressedHashTest, MirrorsRawHashUnderRandomLoad) {
  constexpr std::size_t kBits = 150;
  FrequencyHash raw(kBits);
  CompressedFrequencyHash comp(kBits);
  util::Rng rng(7);
  std::vector<util::DynamicBitset> keys;
  for (int i = 0; i < 3000; ++i) {
    util::DynamicBitset b(kBits);
    for (int j = 0; j < 4; ++j) {
      b.set(rng.below(kBits));
    }
    raw.add(b.words());
    comp.add(b.words());
    keys.push_back(std::move(b));
  }
  EXPECT_EQ(comp.unique_count(), raw.unique_count());
  EXPECT_EQ(comp.total_count(), raw.total_count());
  for (const auto& k : keys) {
    EXPECT_EQ(comp.frequency(k.words()), raw.frequency(k.words()));
  }
}

TEST(CompressedHashTest, ForEachKeyDecodesExactKeys) {
  constexpr std::size_t kBits = 96;
  CompressedFrequencyHash h(kBits);
  util::Rng rng(11);
  std::map<std::string, std::uint32_t> mirror;
  for (int i = 0; i < 300; ++i) {
    util::DynamicBitset b(kBits);
    b.set(rng.below(kBits));
    b.set(rng.below(kBits));
    h.add(b.words());
    ++mirror[b.to_string()];
  }
  std::map<std::string, std::uint32_t> seen;
  h.for_each_key([&](util::ConstWordSpan words, std::uint32_t count) {
    seen[util::DynamicBitset(kBits, words).to_string()] = count;
  });
  EXPECT_EQ(seen, mirror);
}

TEST(CompressedHashTest, MergeCombines) {
  CompressedFrequencyHash a(80);
  CompressedFrequencyHash b(80);
  a.add(key(80, {1}).words(), 2);
  b.add(key(80, {1}).words(), 3);
  b.add(key(80, {2}).words(), 1);
  a.merge_from(b);
  EXPECT_EQ(a.frequency(key(80, {1}).words()), 5u);
  EXPECT_EQ(a.frequency(key(80, {2}).words()), 1u);
  EXPECT_EQ(a.total_count(), 6u);
}

TEST(CompressedHashTest, MergeTypeMismatchThrows) {
  CompressedFrequencyHash a(80);
  FrequencyHash raw(80);
  EXPECT_THROW(a.merge_from(raw), InvalidArgument);
  EXPECT_THROW(raw.merge_from(a), InvalidArgument);
  CompressedFrequencyHash other(90);
  EXPECT_THROW(a.merge_from(other), InvalidArgument);
}

TEST(CompressedHashTest, WeightedTotalsSurviveMerge) {
  CompressedFrequencyHash a(64);
  CompressedFrequencyHash b(64);
  a.add_weighted(key(64, {1}).words(), 2, 0.5);
  b.add_weighted(key(64, {2}).words(), 3, 2.0);
  a.merge_from(b);
  EXPECT_DOUBLE_EQ(a.total_weight(), 2 * 0.5 + 3 * 2.0);
}

TEST(CompressedHashTest, UsesLessKeyMemoryOnLargeUniverses) {
  constexpr std::size_t kTaxa = 500;
  const auto taxa = phylo::TaxonSet::make_numbered(kTaxa);
  util::Rng rng(5);
  const auto trees = test::random_collection(taxa, 100, 5, rng);

  FrequencyHash raw(kTaxa);
  CompressedFrequencyHash comp(kTaxa);
  for (const auto& t : trees) {
    const auto bips = phylo::extract_bipartitions(t);
    bips.for_each([&](util::ConstWordSpan w) {
      raw.add(w);
      comp.add(w);
    });
  }
  EXPECT_EQ(comp.unique_count(), raw.unique_count());
  // Mean encoded key beats the 64-byte raw key at n=500. (The win depends
  // on split depth: shallow clades cost a few bytes, balanced ones less so
  // — bench_ablation_hash A4c quantifies the distribution.)
  const double raw_key_bytes =
      static_cast<double>(util::words_for_bits(kTaxa)) * 8.0;
  EXPECT_LT(comp.mean_key_bytes(), 0.9 * raw_key_bytes);
}

// --- engine-level integration -------------------------------------------

TEST(CompressedHashTest, BfhrfResultsIdenticalWithCompressedKeys) {
  const auto taxa = phylo::TaxonSet::make_numbered(40);
  util::Rng rng(13);
  const auto reference = test::random_collection(taxa, 30, 4, rng);
  const auto queries = test::random_collection(taxa, 10, 6, rng);

  const auto raw = bfhrf_average_rf(queries, reference);
  const auto comp = bfhrf_average_rf(queries, reference,
                                     {.compressed_keys = true});
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_DOUBLE_EQ(comp[i], raw[i]);
  }
}

TEST(CompressedHashTest, ParallelCompressedBuildMatchesSequential) {
  const auto taxa = phylo::TaxonSet::make_numbered(24);
  util::Rng rng(17);
  const auto reference = test::random_collection(taxa, 40, 3, rng);
  const auto queries = test::random_collection(taxa, 8, 5, rng);

  const auto seq = bfhrf_average_rf(queries, reference,
                                    {.threads = 1, .compressed_keys = true});
  const auto par = bfhrf_average_rf(queries, reference,
                                    {.threads = 4, .compressed_keys = true});
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_DOUBLE_EQ(par[i], seq[i]);
  }
}

TEST(CompressedHashTest, ConsensusWorksOffCompressedStore) {
  const auto taxa = phylo::TaxonSet::make_numbered(14);
  util::Rng rng(19);
  const Tree base = sim::yule_tree(taxa, rng);
  const std::vector<Tree> trees(9, base);
  Bfhrf engine(taxa->size(), {.compressed_keys = true});
  engine.build(trees);
  const Tree cons = consensus_tree(engine.store(), trees.size(), taxa);
  EXPECT_EQ(rf_distance(cons, base), 0u);
}

TEST(CompressedHashTest, VariantWeightsWorkWithCompressedKeys) {
  const auto taxa = phylo::TaxonSet::make_numbered(16);
  util::Rng rng(23);
  const auto reference = test::random_collection(taxa, 15, 3, rng);
  const auto queries = test::random_collection(taxa, 5, 4, rng);
  const InformationWeightedRf variant(16);

  BfhrfOptions raw_opts;
  raw_opts.variant = &variant;
  BfhrfOptions comp_opts = raw_opts;
  comp_opts.compressed_keys = true;
  const auto raw = bfhrf_average_rf(queries, reference, raw_opts);
  const auto comp = bfhrf_average_rf(queries, reference, comp_opts);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_NEAR(comp[i], raw[i], 1e-9);
  }
}

}  // namespace
}  // namespace bfhrf::core
