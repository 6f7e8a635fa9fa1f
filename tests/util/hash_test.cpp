#include "util/hash.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <vector>

#include "util/rng.hpp"

namespace bfhrf::util {
namespace {

TEST(HashTest, Mix64IsDeterministic) {
  EXPECT_EQ(mix64(0), mix64(0));
  EXPECT_EQ(mix64(12345), mix64(12345));
}

TEST(HashTest, Mix64SpreadsNearbyInputs) {
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    outputs.insert(mix64(i));
  }
  EXPECT_EQ(outputs.size(), 1000u);
}

TEST(HashTest, HashWordsEmptySpanIsStable) {
  const std::vector<std::uint64_t> empty;
  EXPECT_EQ(hash_words(empty), hash_words(empty));
}

TEST(HashTest, HashWordsSensitiveToEveryWord) {
  std::vector<std::uint64_t> words{1, 2, 3, 4};
  const std::uint64_t base = hash_words(words);
  for (std::size_t i = 0; i < words.size(); ++i) {
    auto mutated = words;
    mutated[i] ^= 1;
    EXPECT_NE(hash_words(mutated), base) << "word " << i;
  }
}

TEST(HashTest, HashWordsSensitiveToSeed) {
  const std::vector<std::uint64_t> words{42, 43};
  EXPECT_NE(hash_words(words, 0), hash_words(words, 1));
}

TEST(HashTest, HashWordsOrderSensitive) {
  const std::vector<std::uint64_t> ab{1, 2};
  const std::vector<std::uint64_t> ba{2, 1};
  EXPECT_NE(hash_words(ab), hash_words(ba));
}

TEST(HashTest, SeededFamilyMembersDisagree) {
  const SeededWordHash h1(1);
  const SeededWordHash h2(2);
  const std::vector<std::uint64_t> words{7, 8, 9};
  EXPECT_NE(h1(words), h2(words));
  EXPECT_EQ(h1(words), SeededWordHash(1)(words));
}

TEST(HashTest, CollisionRateIsLowOnRandomKeys) {
  Rng rng(99);
  std::set<std::uint64_t> hashes;
  constexpr int kKeys = 20000;
  for (int i = 0; i < kKeys; ++i) {
    const std::vector<std::uint64_t> key{rng(), rng()};
    hashes.insert(hash_words(key));
  }
  // Birthday bound at 64 bits: collisions among 2e4 keys are ~1e-11 likely.
  EXPECT_EQ(hashes.size(), static_cast<std::size_t>(kKeys));
}

TEST(FingerprintTest, KernelsAgreeBitForBit) {
  // The PCLMULQDQ kernel against the portable one on random spans of 1-40
  // words, past the constant table (3,125 words: a 200,000-taxon key) and
  // on the empty span. Without the PCLMULQDQ kernel (a BFHRF_DISABLE_SIMD
  // build, or a CPU without it) fingerprint_kernels::pclmul is the
  // portable kernel, and the dispatched fingerprint must still match.
  namespace k = fingerprint_kernels;
  Rng rng(0xF1F0);
  std::vector<std::uint64_t> words;
  for (int rep = 0; rep < 2000; ++rep) {
    words.resize(1 + rng.below(40));
    for (std::uint64_t& w : words) {
      // Dense, sparse and single-bit words.
      w = rep % 3 == 0 ? rng() : rep % 3 == 1 ? rng() & rng() & rng()
                                             : std::uint64_t{1}
                                                   << rng.below(64);
    }
    const std::uint64_t want = k::portable(words);
    if (k::pclmul_available()) {
      ASSERT_EQ(k::pclmul(words), want) << words.size() << " words";
    }
    ASSERT_EQ(linear_fingerprint(words), want);
    ASSERT_EQ(fingerprint(words), mix64(want));
  }
  words.assign(3125, 0);
  for (std::uint64_t& w : words) {
    w = rng();
  }
  EXPECT_EQ(linear_fingerprint(words), k::portable(words));
  if (k::pclmul_available()) {
    EXPECT_EQ(k::pclmul(words), k::portable(words));
  }
  EXPECT_EQ(linear_fingerprint({}), 0u);
}

TEST(FingerprintTest, IsLinearWithRotatedTaxonColumns) {
  Rng rng(0xF1F1);
  for (const std::size_t n_words : {std::size_t{1}, std::size_t{3},
                                    std::size_t{16}, std::size_t{300}}) {
    std::vector<std::uint64_t> a(n_words);
    std::vector<std::uint64_t> b(n_words);
    std::vector<std::uint64_t> x(n_words);
    for (int rep = 0; rep < 50; ++rep) {
      for (std::size_t i = 0; i < n_words; ++i) {
        a[i] = rng();
        b[i] = rng();
        x[i] = a[i] ^ b[i];
      }
      ASSERT_EQ(linear_fingerprint(x),
                linear_fingerprint(a) ^ linear_fingerprint(b));
    }
    // Taxon t's column is rotl(C[t / 64], t mod 64), past the table too.
    std::vector<std::uint64_t> single(n_words, 0);
    for (int rep = 0; rep < 200; ++rep) {
      const std::size_t t = rng.below(n_words * 64);
      single.assign(n_words, 0);
      single[t >> 6] = std::uint64_t{1} << (t & 63);
      ASSERT_EQ(linear_fingerprint(single), taxon_column(t)) << "taxon " << t;
    }
  }
  for (std::size_t i = 0; i < 4000; ++i) {
    ASSERT_EQ(std::popcount(constant_of(i)) % 2, 1) << "word " << i;
    ASSERT_EQ(constant_of(i), fingerprint_constant(i));
  }
}

TEST(FingerprintTest, KeysDifferingInOneWordNeverCollide) {
  // An odd-weight constant is a unit modulo x^64 + 1, so a nonzero change
  // confined to one word always changes L; mix64 is a bijection.
  Rng rng(0xF1F2);
  std::vector<std::uint64_t> key(16);
  for (int rep = 0; rep < 20000; ++rep) {
    for (std::uint64_t& w : key) {
      w = rng();
    }
    const std::uint64_t base = fingerprint(key);
    const std::size_t word = rng.below(key.size());
    std::uint64_t delta = rep % 2 == 0 ? rng() : std::uint64_t{1}
                                                     << rng.below(64);
    delta |= delta == 0 ? 1 : 0;
    key[word] ^= delta;
    ASSERT_NE(fingerprint(key), base) << "word " << word;
  }
}

TEST(FingerprintTest, CollisionRateIsLowOnRandomKeys) {
  Rng rng(98);
  std::set<std::uint64_t> fps;
  constexpr int kKeys = 20000;
  for (int i = 0; i < kKeys; ++i) {
    const std::vector<std::uint64_t> key{rng(), rng(), rng()};
    fps.insert(fingerprint(key));
  }
  EXPECT_EQ(fps.size(), static_cast<std::size_t>(kKeys));
}

TEST(HashTest, HashCombineNotCommutative) {
  EXPECT_NE(hash_combine(hash_combine(0, 1), 2),
            hash_combine(hash_combine(0, 2), 1));
}

}  // namespace
}  // namespace bfhrf::util
