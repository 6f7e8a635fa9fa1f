#include "core/frequency_hash.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/bfhrf.hpp"
#include "core/consensus.hpp"
#include "core/rf.hpp"
#include "core/sharded_hash.hpp"
#include "support/test_util.hpp"
#include "util/bitset.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace bfhrf::core {
namespace {

util::DynamicBitset key(std::size_t n_bits, std::initializer_list<int> bits) {
  util::DynamicBitset b(n_bits);
  for (const int i : bits) {
    b.set(static_cast<std::size_t>(i));
  }
  return b;
}

TEST(FrequencyHashTest, EmptyHash) {
  const FrequencyHash h(100);
  EXPECT_EQ(h.unique_count(), 0u);
  EXPECT_EQ(h.total_count(), 0u);
  EXPECT_DOUBLE_EQ(h.total_weight(), 0.0);
  EXPECT_EQ(h.frequency(key(100, {1, 2}).words()), 0u);
}

TEST(FrequencyHashTest, AddAndLookup) {
  FrequencyHash h(100);
  const auto a = key(100, {1, 2});
  const auto b = key(100, {64, 65});
  h.add(a.words());
  h.add(a.words());
  h.add(b.words(), 3);
  EXPECT_EQ(h.frequency(a.words()), 2u);
  EXPECT_EQ(h.frequency(b.words()), 3u);
  EXPECT_EQ(h.unique_count(), 2u);
  EXPECT_EQ(h.total_count(), 5u);
  EXPECT_DOUBLE_EQ(h.total_weight(), 5.0);  // unit weights
}

TEST(FrequencyHashTest, AbsentKeyIsZero) {
  FrequencyHash h(64);
  h.add(key(64, {0}).words());
  EXPECT_EQ(h.frequency(key(64, {1}).words()), 0u);
}

TEST(FrequencyHashTest, GrowthPreservesContents) {
  constexpr std::size_t kBits = 200;
  FrequencyHash h(kBits);  // default small table, forced to grow
  util::Rng rng(42);
  std::map<std::string, std::uint32_t> mirror;
  for (int i = 0; i < 5000; ++i) {
    util::DynamicBitset b(kBits);
    for (int j = 0; j < 5; ++j) {
      b.set(rng.below(kBits));
    }
    h.add(b.words());
    ++mirror[b.to_string()];
  }
  EXPECT_EQ(h.unique_count(), mirror.size());
  EXPECT_EQ(h.total_count(), 5000u);
  for (const auto& [s, count] : mirror) {
    EXPECT_EQ(h.frequency(util::DynamicBitset::from_string(s).words()),
              count);
  }
  EXPECT_LE(h.load_factor(), 0.7 + 1e-9);
}

TEST(FrequencyHashTest, CollisionFreeUnderAdversarialKeys) {
  // Dense similar keys (single-bit differences) must never merge.
  constexpr std::size_t kBits = 256;
  FrequencyHash h(kBits);
  for (std::size_t i = 0; i < kBits; ++i) {
    h.add(key(kBits, {static_cast<int>(i)}).words());
  }
  EXPECT_EQ(h.unique_count(), kBits);
  for (std::size_t i = 0; i < kBits; ++i) {
    EXPECT_EQ(h.frequency(key(kBits, {static_cast<int>(i)}).words()), 1u);
  }
}

TEST(FrequencyHashTest, ExpectedUniquePresizesTable) {
  FrequencyHash h(64, 10000);
  const std::size_t before = h.memory_bytes();
  for (int i = 0; i < 64; ++i) {
    h.add(key(64, {i}).words());
  }
  // Presized: no slot-table or arena reallocation while under capacity.
  EXPECT_EQ(h.memory_bytes(), before);
}

TEST(FrequencyHashTest, ForEachVisitsEveryUniqueKeyOnce) {
  FrequencyHash h(128);
  util::Rng rng(7);
  std::map<std::string, std::uint32_t> mirror;
  for (int i = 0; i < 500; ++i) {
    util::DynamicBitset b(128);
    b.set(rng.below(128));
    b.set(rng.below(128));
    h.add(b.words());
    ++mirror[b.to_string()];
  }
  std::map<std::string, std::uint32_t> seen;
  h.for_each([&](util::ConstWordSpan words, std::uint32_t count) {
    const util::DynamicBitset b(128, words);
    seen[b.to_string()] = count;
  });
  EXPECT_EQ(seen, mirror);
}

TEST(FrequencyHashTest, WeightedTotals) {
  FrequencyHash h(64);
  h.add(key(64, {1}).words(), 1, 2.5);
  h.add(key(64, {1}).words(), 1, 2.5);
  h.add(key(64, {2}).words(), 1, 1.0);
  EXPECT_DOUBLE_EQ(h.total_weight(), 6.0);
  EXPECT_EQ(h.total_count(), 3u);
  EXPECT_EQ(h.frequency(key(64, {1}).words()), 2u);
}

TEST(FrequencyHashTest, MemoryGrowsWithUniqueKeysNotTotalCount) {
  FrequencyHash repeated(128);
  FrequencyHash unique(128);
  util::Rng rng(11);
  const auto k = key(128, {1, 2, 3});
  for (int i = 0; i < 2000; ++i) {
    repeated.add(k.words());
    util::DynamicBitset b(128);
    b.set(rng.below(128));
    b.set(rng.below(128));
    b.set(i % 128 == 0 ? 1u : static_cast<std::size_t>(rng.below(128)));
    unique.add(b.words());
  }
  EXPECT_LT(repeated.memory_bytes(), unique.memory_bytes());
  EXPECT_EQ(repeated.unique_count(), 1u);
}

class FrequencyHashWidthSweep : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(FrequencyHashWidthSweep, RandomInsertLookupConsistency) {
  const std::size_t n_bits = GetParam();
  FrequencyHash h(n_bits);
  util::Rng rng(n_bits);
  std::map<std::string, std::uint32_t> mirror;
  for (int i = 0; i < 800; ++i) {
    util::DynamicBitset b(n_bits);
    const std::size_t ones = 1 + rng.below(std::min<std::size_t>(n_bits, 8));
    for (std::size_t j = 0; j < ones; ++j) {
      b.set(rng.below(n_bits));
    }
    h.add(b.words());
    ++mirror[b.to_string()];
  }
  for (const auto& [s, count] : mirror) {
    EXPECT_EQ(h.frequency(util::DynamicBitset::from_string(s).words()),
              count);
  }
  EXPECT_EQ(h.unique_count(), mirror.size());
}

INSTANTIATE_TEST_SUITE_P(Widths, FrequencyHashWidthSweep,
                         ::testing::Values(8, 48, 64, 65, 100, 144, 128, 250,
                                           1000));

TEST(FrequencyHashTest, AddManyAtExactLoadBoundaryGrowsAtTheKeyPastIt) {
  // A 16-slot table holds at most floor(0.7 * 16) = 11 resident keys.
  FrequencyHash h(64, 1);
  ASSERT_EQ(h.capacity_slots(), 16u);
  EXPECT_EQ(table_size_for(11), 16u);
  EXPECT_EQ(table_size_for(12), 32u);
  for (std::uint64_t k = 1; k <= 3; ++k) {
    h.add(util::ConstWordSpan{&k, 1});
  }
  // A batch landing EXACTLY on the boundary must not grow: 3 + 8 = 11.
  std::vector<std::uint64_t> batch;
  for (std::uint64_t k = 100; k < 108; ++k) {
    batch.push_back(k);
  }
  h.add_many(batch.data(), batch.size(), nullptr);
  EXPECT_EQ(h.unique_count(), 11u);
  EXPECT_EQ(h.capacity_slots(), 16u);
  EXPECT_LE(h.load_factor(), 0.7);
  // A batch of repeats with one new key among them: the new key doubles
  // the table mid-batch, and the keys after it land in the new table.
  std::vector<std::uint64_t> mixed(batch.begin(), batch.begin() + 4);
  const std::uint64_t extra = 999;
  mixed.push_back(extra);
  mixed.insert(mixed.end(), batch.begin() + 4, batch.end());
  h.add_many(mixed.data(), mixed.size(), nullptr);
  EXPECT_EQ(h.capacity_slots(), 32u);
  EXPECT_EQ(h.unique_count(), 12u);
  // Every key survived the boundary dance with its exact count.
  for (std::uint64_t k = 1; k <= 3; ++k) {
    EXPECT_EQ(h.frequency(util::ConstWordSpan{&k, 1}), 1u);
  }
  for (const std::uint64_t k : batch) {
    EXPECT_EQ(h.frequency(util::ConstWordSpan{&k, 1}), 2u);
  }
  EXPECT_EQ(h.frequency(util::ConstWordSpan{&extra, 1}), 1u);
}

TEST(FrequencyHashTest, BatchesOfRepeatsSizeTablesByTheirKeys) {
  // A multi-threaded build flushes 4,096-key batches that are mostly
  // repeats. However the keys arrive, one table and each of 4 shards must
  // end at table_size_for its own keys, as if it had held them from the
  // start.
  constexpr std::size_t kBits = 100;
  constexpr std::size_t kBatch = 4096;
  util::Rng rng(0x51ED);
  std::vector<std::uint64_t> pool;  // 3,000 distinct two-word keys
  for (std::uint64_t i = 0; i < 3000; ++i) {
    pool.push_back(rng());
    pool.push_back(i);
  }
  for (const KeyEncoding encoding : {KeyEncoding::Raw, KeyEncoding::Sparse}) {
    SCOPED_TRACE(encoding == KeyEncoding::Raw ? "raw keys" : "sparse keys");
    FrequencyHash one(kBits, 0, encoding);
    ShardedFrequencyHash four(kBits, 4, encoding);
    std::vector<std::vector<std::uint64_t>> buckets(4);
    for (int b = 0; b < 8; ++b) {
      std::vector<std::uint64_t> batch;
      for (std::size_t i = 0; i < kBatch; ++i) {
        const std::uint64_t* key = pool.data() + 2 * rng.below(3000);
        batch.insert(batch.end(), key, key + 2);
        const std::uint64_t fp = util::fingerprint({key, 2});
        auto& bucket = buckets[shard_of(fp, four.shard_bits())];
        bucket.insert(bucket.end(), key, key + 2);
      }
      one.add_many(batch.data(), kBatch, nullptr);
      for (std::size_t s = 0; s < 4; ++s) {
        four.shard(s).add_many(buckets[s].data(), buckets[s].size() / 2,
                               nullptr);
        buckets[s].clear();
      }
      EXPECT_EQ(one.capacity_slots(), table_size_for(one.unique_count()))
          << "batch " << b;
      for (std::size_t s = 0; s < 4; ++s) {
        EXPECT_EQ(four.shard(s).capacity_slots(),
                  table_size_for(four.shard(s).unique_count()))
            << "batch " << b << " shard " << s;
      }
    }
    EXPECT_EQ(one.unique_count(), 3000u);
    EXPECT_EQ(one.total_count(), 8 * kBatch);
    EXPECT_EQ(one.capacity_slots(), 8192u);
    EXPECT_GT(one.load_factor(), 0.35);
    std::size_t keys = 0;
    for (std::size_t s = 0; s < 4; ++s) {
      keys += four.shard(s).unique_count();
      EXPECT_GT(four.shard(s).load_factor(), 0.35) << "shard " << s;
    }
    EXPECT_EQ(keys, 3000u);
  }
}

TEST(FrequencyHashTest, ProbeStatsReflectResidentKeys) {
  // Both encodings place keys by the raw key's fingerprint, so the same
  // inserts give the same layout and, once sparse keys are decoded, the
  // same statistics.
  FrequencyHash raw(64);
  FrequencyHash sparse(64, 0, KeyEncoding::Sparse);
  EXPECT_EQ(raw.probe_stats().max_groups, 0u);
  EXPECT_EQ(sparse.probe_stats().max_groups, 0u);
  util::Rng rng(0x99);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t k = rng();
    raw.add(util::ConstWordSpan{&k, 1});
    sparse.add(util::ConstWordSpan{&k, 1});
  }
  const auto stats = raw.probe_stats();
  EXPECT_GE(stats.mean_groups, 1.0);
  EXPECT_GE(stats.max_groups, 1u);
  EXPECT_LE(stats.mean_groups, static_cast<double>(stats.max_groups));
  // A probe can never walk more groups than the directory holds.
  EXPECT_LE(stats.max_groups, raw.capacity_slots() / 16);
  const auto sparse_stats = sparse.probe_stats();
  EXPECT_EQ(sparse_stats.max_groups, stats.max_groups);
  EXPECT_DOUBLE_EQ(sparse_stats.mean_groups, stats.mean_groups);
}

// --- compressed keys: the sparse key encoding ----------------------------

FrequencyHash sparse_hash(std::size_t n_bits) {
  return FrequencyHash(n_bits, 0, KeyEncoding::Sparse);
}

TEST(CompressedHashTest, AddAndLookup) {
  FrequencyHash h = sparse_hash(100);
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
  FrequencyHash comp = sparse_hash(kBits);
  util::Rng rng(7);
  std::vector<util::DynamicBitset> keys;
  std::vector<std::uint64_t> arena;
  for (int i = 0; i < 3000; ++i) {
    util::DynamicBitset b(kBits);
    for (int j = 0; j < 4; ++j) {
      b.set(rng.below(kBits));
    }
    raw.add(b.words());
    comp.add(b.words());
    arena.insert(arena.end(), b.words().begin(), b.words().end());
    keys.push_back(std::move(b));
  }
  // The batched insert and lookup agree with the per-key paths.
  FrequencyHash batched = sparse_hash(kBits);
  batched.add_many(arena.data(), keys.size(), nullptr);
  std::vector<std::uint32_t> freqs(keys.size());
  comp.frequency_many(arena.data(), keys.size(), freqs.data());
  EXPECT_EQ(comp.unique_count(), raw.unique_count());
  EXPECT_EQ(comp.total_count(), raw.total_count());
  EXPECT_EQ(batched.unique_count(), raw.unique_count());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(comp.frequency(keys[i].words()), raw.frequency(keys[i].words()));
    EXPECT_EQ(batched.frequency(keys[i].words()), freqs[i]);
    EXPECT_EQ(freqs[i], raw.frequency(keys[i].words()));
  }
}

TEST(CompressedHashTest, ForEachKeyDecodesExactKeys) {
  constexpr std::size_t kBits = 96;
  FrequencyHash h = sparse_hash(kBits);
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
  h.for_each([&](util::ConstWordSpan words, std::uint32_t count) {
    seen[util::DynamicBitset(kBits, words).to_string()] = count;
  });
  EXPECT_EQ(seen, mirror);
}

TEST(CompressedHashTest, UsesLessKeyMemoryOnLargeUniverses) {
  constexpr std::size_t kTaxa = 1000;
  const auto taxa = phylo::TaxonSet::make_numbered(kTaxa);
  util::Rng rng(5);
  const auto trees = test::random_collection(taxa, 100, 5, rng);

  FrequencyHash raw(kTaxa);
  FrequencyHash comp = sparse_hash(kTaxa);
  for (const auto& t : trees) {
    const auto bips = phylo::extract_bipartitions(t);
    bips.for_each([&](util::ConstWordSpan w) {
      raw.add(w);
      comp.add(w);
    });
  }
  EXPECT_EQ(comp.unique_count(), raw.unique_count());
  // Mean encoded key beats the 128-byte raw key at n=1000. (The win
  // depends on split depth: shallow clades cost a few bytes, balanced ones
  // less so — bench_ablation_hash A4c quantifies the distribution.)
  const double raw_key_bytes =
      static_cast<double>(util::words_for_bits(kTaxa)) * 8.0;
  EXPECT_DOUBLE_EQ(static_cast<double>(raw.key_bytes()),
                   raw_key_bytes * static_cast<double>(raw.unique_count()));
  const double mean_key_bytes = static_cast<double>(comp.key_bytes()) /
                                static_cast<double>(comp.unique_count());
  EXPECT_LT(mean_key_bytes, 0.9 * raw_key_bytes);
  EXPECT_LT(comp.memory_bytes(), raw.memory_bytes());
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
  const phylo::Tree base = sim::yule_tree(taxa, rng);
  const std::vector<phylo::Tree> trees(9, base);
  Bfhrf engine(taxa->size(), {.compressed_keys = true});
  engine.build(trees);
  const phylo::Tree cons = consensus_tree(engine.store(), trees.size(), taxa);
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
