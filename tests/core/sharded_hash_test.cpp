#include "core/sharded_hash.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <string>
#include <vector>

#include "core/bfhrf.hpp"
#include "core/frequency_hash.hpp"
#include "core/index_file.hpp"
#include "core/tree_source.hpp"
#include "core/variants.hpp"
#include "support/test_util.hpp"
#include "util/bitset.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace bfhrf::core {
namespace {

using phylo::TaxonSet;

TEST(ShardOfTest, ZeroBitsRoutesEverythingToShardZero) {
  EXPECT_EQ(shard_of(0, 0), 0u);
  EXPECT_EQ(shard_of(~std::uint64_t{0}, 0), 0u);
}

TEST(ShardOfTest, TopBitsSelectTheShard) {
  // With b bits, the shard is the top b bits of the fingerprint —
  // disjoint from the low bits the in-shard probe consumes.
  EXPECT_EQ(shard_of(std::uint64_t{1} << 63, 1), 1u);
  EXPECT_EQ(shard_of(std::uint64_t{1} << 62, 1), 0u);
  EXPECT_EQ(shard_of(std::uint64_t{0xF} << 60, 4), 15u);
  EXPECT_EQ(shard_of(std::uint64_t{0x5} << 60, 4), 5u);
}

TEST(ShardedHashTest, RoundsShardCountToPowerOfTwo) {
  const ShardedFrequencyHash h3(64, 3);
  EXPECT_EQ(h3.shard_count(), 4u);
  EXPECT_EQ(h3.shard_bits(), 2u);
  const ShardedFrequencyHash h1(64, 0);
  EXPECT_EQ(h1.shard_count(), 1u);
  EXPECT_EQ(h1.shard_bits(), 0u);
}

/// Add `count` occurrences of `key` to the shard that owns it.
void add_routed(ShardedFrequencyHash& tables, util::ConstWordSpan key,
                std::uint32_t count = 1) {
  tables.shard(shard_of(util::fingerprint(key), tables.shard_bits()))
      .add(key, count);
}

/// `count` keys of n_bits bits in the kernel of util::linear_fingerprint,
/// linearly independent: Gaussian elimination over GF(2)^64 of the taxon
/// columns of taxa 1.. (bit 0 stays clear, as in a canonical key). Each
/// column that reduces to zero closes a set of taxa whose columns XOR to
/// zero; 65 columns always hold one.
std::vector<std::vector<std::uint64_t>> fingerprint_kernel(std::size_t n_bits,
                                                           std::size_t count) {
  const std::size_t wp = util::words_for_bits(n_bits);
  struct Row {
    std::uint64_t value = 0;           ///< XOR of the chosen columns
    std::vector<std::uint64_t> taxa;   ///< which columns, as a key
  };
  std::vector<Row> basis(64);  // by pivot (highest set) bit; value 0: none
  std::vector<std::vector<std::uint64_t>> kernel;
  for (std::size_t t = 1; t < n_bits && kernel.size() < count; ++t) {
    Row row{util::taxon_column(t), std::vector<std::uint64_t>(wp, 0)};
    row.taxa[t >> 6] |= std::uint64_t{1} << (t & 63);
    while (row.value != 0) {
      Row& pivot =
          basis[static_cast<std::size_t>(63 - std::countl_zero(row.value))];
      if (pivot.value == 0) {
        pivot = row;
        break;
      }
      row.value ^= pivot.value;
      for (std::size_t w = 0; w < wp; ++w) {
        row.taxa[w] ^= pivot.taxa[w];
      }
    }
    if (row.value == 0) {
      kernel.push_back(std::move(row.taxa));
    }
  }
  return kernel;
}

TEST(ShardedHashTest, LinearFingerprintCollisionsKeepSeparateCounts) {
  // The fingerprint is linear, so a test can build distinct keys with equal
  // util::fingerprint: a base key XOR any combination of kernel vectors.
  // 32 such keys share one tag, home group and shard (two groups' worth),
  // and 32 more colliders stay absent. Each stored key must keep its own
  // count through add, add_many (with and without fingerprints) and
  // frequency_many, in one table and in 4 shards, built and mapped, with
  // raw and sparse keys: full-key verification, not the fingerprint, is
  // what keeps the store collision-free.
  constexpr std::size_t kBits = 130;  // 3 words, 129 columns
  constexpr std::size_t kStored = 5;  // 2^5 stored colliders
  const std::size_t wp = util::words_for_bits(kBits);
  const auto kernel = fingerprint_kernel(kBits, kStored + 1);
  ASSERT_EQ(kernel.size(), kStored + 1);
  util::Rng rng(0xC011);
  std::vector<std::uint64_t> base(wp);
  for (std::uint64_t& w : base) {
    w = rng();
  }
  base[0] &= ~std::uint64_t{1};
  base.back() &= (std::uint64_t{1} << (kBits % 64)) - 1;
  // Keys 0..31 are stored; 32..63 add the last kernel vector: absent.
  constexpr std::size_t kKeys = std::size_t{2} << kStored;
  constexpr std::size_t kPresent = kKeys / 2;
  std::vector<std::uint64_t> keys;
  for (std::size_t m = 0; m < kKeys; ++m) {
    std::vector<std::uint64_t> key = base;
    for (std::size_t j = 0; j <= kStored; ++j) {
      if (((m >> j) & 1) != 0) {
        for (std::size_t w = 0; w < wp; ++w) {
          key[w] ^= kernel[j][w];
        }
      }
    }
    keys.insert(keys.end(), key.begin(), key.end());
  }
  const auto key_i = [&](std::size_t i) {
    return util::ConstWordSpan{keys.data() + i * wp, wp};
  };
  std::vector<std::uint64_t> fps(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) {
    fps[i] = util::fingerprint(key_i(i));
    ASSERT_EQ(fps[i], fps[0]) << "key " << i;
    for (std::size_t j = 0; j < i; ++j) {
      ASSERT_FALSE(util::equal_words(key_i(i), key_i(j))) << i << ", " << j;
    }
  }
  // Stored key i counts 1 + i; every absent collider counts 0.
  const auto want = [&](std::size_t i) {
    return i < kPresent ? static_cast<std::uint32_t>(1 + i) : 0u;
  };
  const auto check_many = [&](const auto& lookup, const char* what) {
    for (const bool with_fps : {false, true}) {
      std::vector<std::uint32_t> out(kKeys, 0xdeadbeef);
      lookup(out.data(), with_fps ? fps.data() : nullptr);
      for (std::size_t i = 0; i < kKeys; ++i) {
        EXPECT_EQ(out[i], want(i)) << what << " key " << i
                                   << (with_fps ? " (fingerprints given)"
                                                : "");
      }
    }
  };
  const std::string base_path = ::testing::TempDir() + "bfhrf_collide_" +
                                std::to_string(::getpid());
  for (const KeyEncoding encoding : {KeyEncoding::Raw, KeyEncoding::Sparse}) {
    SCOPED_TRACE(encoding == KeyEncoding::Sparse ? "sparse" : "raw");
    // One table through add: key i added once with count 1 + i.
    FrequencyHash single(kBits, 0, encoding);
    for (std::size_t i = 0; i < kPresent; ++i) {
      single.add(key_i(i), static_cast<std::uint32_t>(1 + i));
    }
    EXPECT_EQ(single.unique_count(), kPresent);
    for (std::size_t i = 0; i < kKeys; ++i) {
      EXPECT_EQ(single.frequency(key_i(i)), want(i)) << "key " << i;
    }
    check_many(
        [&](std::uint32_t* out, const std::uint64_t* f) {
          single.frequency_many(keys.data(), kKeys, out, f);
        },
        "one table, add");
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(std::to_string(shards) + " shards");
      // Every collider lives in the one shard its fingerprint picks; fill
      // it through add_many: key i's first occurrence with its
      // fingerprint, the other i without.
      ShardedFrequencyHash tables(kBits, shards, encoding);
      FrequencyHash& owner =
          tables.shard(shard_of(fps[0], tables.shard_bits()));
      owner.add_many(keys.data(), kPresent, nullptr, fps.data());
      for (std::size_t i = 1; i < kPresent; ++i) {
        std::vector<std::uint64_t> repeats;
        for (std::size_t r = 0; r < i; ++r) {
          repeats.insert(repeats.end(), key_i(i).begin(), key_i(i).end());
        }
        owner.add_many(repeats.data(), i, nullptr);
      }
      EXPECT_EQ(owner.unique_count(), kPresent);
      const std::string path = base_path + "_" +
                               std::to_string(static_cast<int>(encoding)) +
                               "_" + std::to_string(shards) + ".bfi";
      write_index_file(tables, 0.0, {.reference_trees = 1}, path);
      const MappedIndex mapped(path);
      const BfhIndexView built(tables, 0.0);
      const BfhIndexView loaded = mapped.view();
      for (const BfhIndexView* view : {&built, &loaded}) {
        check_many(
            [&](std::uint32_t* out, const std::uint64_t* f) {
              view->frequency_many(keys.data(), kKeys, out, f);
            },
            view == &built ? "built" : "mapped");
      }
      std::filesystem::remove(path);
    }
  }
}

TEST(ShardedHashTest, MatchesSingleTableOnRandomKeys) {
  const std::size_t n_bits = 100;
  const std::size_t wp = util::words_for_bits(n_bits);
  util::Rng rng(7);
  std::vector<std::uint64_t> keys;
  const std::size_t count = 500;
  for (std::size_t i = 0; i < count * wp; ++i) {
    keys.push_back(rng());
  }

  FrequencyHash single(n_bits);
  ShardedFrequencyHash sharded(n_bits, 8);
  // Insert every key twice: the single table through its scalar and
  // batched paths, the sharded store key by key into its owner shard.
  for (std::size_t i = 0; i < count; ++i) {
    single.add({keys.data() + i * wp, wp}, 1);
    add_routed(sharded, {keys.data() + i * wp, wp});
  }
  single.add_many(keys.data(), count, nullptr);
  for (std::size_t i = 0; i < count; ++i) {
    add_routed(sharded, {keys.data() + i * wp, wp});
  }

  const BfhIndexView view(sharded, single.total_weight());
  EXPECT_EQ(view.n_bits(), n_bits);
  EXPECT_EQ(view.shard_count(), 8u);
  EXPECT_EQ(view.unique_count(), single.unique_count());
  EXPECT_EQ(view.total_count(), single.total_count());
  EXPECT_EQ(view.key_bytes(), single.key_bytes());
  std::vector<std::uint32_t> freqs(count);
  view.frequency_many(keys.data(), count, freqs.data());
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(freqs[i], single.frequency({keys.data() + i * wp, wp}));
  }
  // Shard totals must partition the global totals, and the view's scalars
  // must be the sums over its shards.
  std::size_t unique_sum = 0;
  std::size_t largest = 0;
  std::size_t slots = 0;
  std::size_t bytes = 0;
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    unique_sum += sharded.shard(s).unique_count();
    largest = std::max(largest, sharded.shard(s).unique_count());
    slots += sharded.shard(s).capacity_slots();
    bytes += sharded.shard(s).memory_bytes();
  }
  EXPECT_EQ(unique_sum, view.unique_count());
  EXPECT_EQ(slots, view.capacity_slots());
  EXPECT_EQ(bytes, view.memory_bytes());
  EXPECT_DOUBLE_EQ(view.shard_skew(),
                   static_cast<double>(largest) * 8.0 /
                       static_cast<double>(unique_sum));
  EXPECT_GE(view.shard_skew(), 1.0);
}

TEST(BfhIndexViewTest, RoutedLookupMatchesPerShardLookup) {
  // The one batched lookup against a direct lookup in the owner shard's
  // table, over every store shape it serves: 1, 2, 4 and 64 shards, both
  // key encodings, 1-, 2- and 16-word keys, built tables and the same
  // tables mapped back from disk (saved as one table, so the mapped store
  // runs the one-table pipeline). Batch sizes straddle the pipeline's
  // stage offsets (4, 8, 12) and its 16-entry ring, and every batch is a
  // slice of one pool that mixes stored and absent keys.
  constexpr std::size_t kKeys = 300;
  constexpr std::uint32_t kUntouched = 0xdeadbeefU;
  const std::string base = ::testing::TempDir() + "bfhrf_lookup_" +
                           std::to_string(::getpid());
  util::Rng rng(11);
  for (const std::size_t n_bits :
       {std::size_t{64}, std::size_t{72}, std::size_t{1000}}) {
    const std::size_t wp = util::words_for_bits(n_bits);
    const auto random_key = [&](std::vector<std::uint64_t>& out) {
      for (std::size_t w = 0; w < wp; ++w) {
        out.push_back(rng());
      }
      if (n_bits % 64 != 0) {
        out.back() &= (std::uint64_t{1} << (n_bits % 64)) - 1;
      }
    };
    std::vector<std::uint64_t> stored;
    for (std::size_t i = 0; i < kKeys; ++i) {
      random_key(stored);
    }
    std::vector<std::uint64_t> pool;
    for (std::size_t i = 0; i < kKeys; ++i) {
      if (rng.bernoulli(0.5)) {
        const std::uint64_t* key = stored.data() + rng.below(kKeys) * wp;
        pool.insert(pool.end(), key, key + wp);
      } else {
        random_key(pool);
      }
    }
    for (const KeyEncoding encoding : {KeyEncoding::Raw, KeyEncoding::Sparse}) {
      for (const std::uint32_t bits : {0U, 1U, 2U, 6U}) {
        SCOPED_TRACE("n_bits=" + std::to_string(n_bits) + " sparse=" +
                     std::to_string(encoding == KeyEncoding::Sparse) +
                     " shard_bits=" + std::to_string(bits));
        ShardedFrequencyHash tables(n_bits, std::size_t{1} << bits,
                                    encoding);
        for (std::size_t i = 0; i < kKeys; ++i) {
          add_routed(tables, {stored.data() + i * wp, wp},
                     static_cast<std::uint32_t>(1 + i % 3));
        }
        const auto owner_frequency = [&](const std::uint64_t* key) {
          const util::ConstWordSpan span{key, wp};
          return tables.shard(shard_of(util::fingerprint(span), bits))
              .frequency(span);
        };
        const std::string path =
            base + "_" + std::to_string(n_bits) + "_" +
            std::to_string(static_cast<int>(encoding)) + "_" +
            std::to_string(bits) + ".bfi";
        write_index_file(tables, 0.0, {.reference_trees = 1}, path);
        const MappedIndex mapped(path);
        const BfhIndexView built(tables, 0.0);
        const BfhIndexView loaded = mapped.view();
        for (const BfhIndexView* view : {&built, &loaded}) {
          SCOPED_TRACE(view == &built ? "built" : "mapped");
          ASSERT_EQ(view->shard_count(),
                    view == &built ? std::size_t{1} << bits : 1U);
          std::size_t present = 0;
          std::size_t absent = 0;
          for (const std::size_t batch :
               {0, 1, 3, 4, 5, 8, 9, 12, 13, 16, 17, 300}) {
            const std::size_t first = rng.below(kKeys - batch + 1);
            const std::uint64_t* keys = pool.data() + first * wp;
            std::vector<std::uint32_t> freqs(batch + 1, kUntouched);
            view->frequency_many(keys, batch, freqs.data());
            for (std::size_t i = 0; i < batch; ++i) {
              EXPECT_EQ(freqs[i], owner_frequency(keys + i * wp))
                  << "batch=" << batch << " key " << i;
              ++(freqs[i] == 0 ? absent : present);
            }
            EXPECT_EQ(freqs[batch], kUntouched) << "batch=" << batch;
          }
          EXPECT_GT(present, 0U);
          EXPECT_GT(absent, 0U);
        }
        std::error_code ec;
        std::filesystem::remove(path, ec);
      }
    }
  }
}

TEST(ShardedEngineTest, ShardedBuildMatchesSingleTableEngine) {
  // The thread count shapes the store: a build with workers shards it
  // bit_ceil(threads) ways, an inline one fills one table.
  const auto taxa = TaxonSet::make_numbered(30);
  util::Rng rng(21);
  const auto reference = test::random_collection(taxa, 40, 4, rng);
  const auto queries = test::random_collection(taxa, 12, 6, rng);

  Bfhrf single(taxa->size(), {.threads = 1});
  single.build(reference);
  ASSERT_EQ(single.store().shard_count(), 1u);
  const auto want = single.query(queries);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{3},
                                    std::size_t{4}, std::size_t{8}}) {
    Bfhrf sharded(taxa->size(), {.threads = threads});
    sharded.build(reference);
    EXPECT_EQ(sharded.store().shard_count(),
              test::expected_shards(threads))
        << "threads=" << threads;
    EXPECT_EQ(sharded.stats().unique_bipartitions,
              single.stats().unique_bipartitions);
    EXPECT_EQ(sharded.stats().total_bipartitions,
              single.stats().total_bipartitions);
    const auto got = sharded.query(queries);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "threads=" << threads << " query " << i;
    }
  }
}

TEST(ShardedEngineTest, StreamingShardedBuildMatches) {
  const auto taxa = TaxonSet::make_numbered(24);
  util::Rng rng(31);
  const auto reference = test::random_collection(taxa, 30, 4, rng);
  const auto queries = test::random_collection(taxa, 8, 5, rng);

  Bfhrf single(taxa->size(), {.threads = 1});
  single.build(reference);
  const auto want = single.query(queries);

  Bfhrf sharded(taxa->size(), {.threads = 4});
  const test::TempNewick file("reference", reference);
  FileTreeSource source(file.path(), taxa);
  sharded.build(source);
  EXPECT_EQ(sharded.store().shard_count(), test::expected_shards(4));
  const auto got = sharded.query(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(got[i], want[i]);
  }
}

TEST(ShardedEngineTest, VariantAndCompressedStoresShardBitForBit) {
  // Weighted totals are folded across workers in stream order, so a
  // sharded build matches the inline single table bit for bit.
  const auto taxa = TaxonSet::make_numbered(28);
  util::Rng rng(43);
  const auto reference = test::random_collection(taxa, 36, 4, rng);
  const auto queries = test::random_collection(taxa, 10, 6, rng);
  const SizeFilteredRf size_filtered(3, 10);
  const InformationWeightedRf info_weighted(taxa->size());
  struct Config {
    const char* name;
    BfhrfOptions opts;
  };
  const Config configs[] = {
      {"size-filtered", {.variant = &size_filtered}},
      {"info-weighted", {.variant = &info_weighted}},
      {"compressed", {.compressed_keys = true}},
  };
  for (const Config& c : configs) {
    BfhrfOptions one = c.opts;
    one.threads = 1;
    Bfhrf single(taxa->size(), one);
    single.build(reference);
    for (const std::size_t threads :
         {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      BfhrfOptions many = c.opts;
      many.threads = threads;
      Bfhrf sharded(taxa->size(), many);
      sharded.build(reference);
      SCOPED_TRACE(std::string(c.name) + " threads=" +
                   std::to_string(threads));
      EXPECT_EQ(sharded.store().shard_count(),
                test::expected_shards(threads));
      EXPECT_EQ(test::store_image(sharded.store()),
                test::store_image(single.store()));
      EXPECT_EQ(sharded.store().total_count(), single.store().total_count());
      EXPECT_EQ(sharded.store().total_weight(),
                single.store().total_weight());
      EXPECT_EQ(sharded.query(queries), single.query(queries));
    }
  }
}

}  // namespace
}  // namespace bfhrf::core
