// SIMD capability layer + dispatch-equivalence tests (util/simd.hpp).
//
// The group-probe and bitset kernels runtime-dispatch between vector and
// SWAR paths; this suite pins each level with set_force_level and asserts
// the results agree byte-for-byte, including the documented SWAR contract:
// match() may over-report, but only on FULL bytes, and match_empty() is
// exact — which is what keeps table layouts identical across levels.
#include "util/simd.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/frequency_hash.hpp"
#include "util/bitset.hpp"
#include "util/hash.hpp"
#include "util/memory.hpp"
#include "util/rng.hpp"

namespace bfhrf {
namespace {

using util::simd::Group16Swar;
using util::simd::Group16Vec;
using util::simd::Level;

/// Restores autodetected dispatch no matter how a test exits.
struct ForceLevelGuard {
  explicit ForceLevelGuard(Level level) {
    util::simd::set_force_level(level);
  }
  ~ForceLevelGuard() { util::simd::set_force_level(std::nullopt); }
};

/// Reference bitmask of bytes equal to `tag`, computed byte by byte.
std::uint32_t reference_match(const std::uint8_t* ctrl, std::uint8_t tag) {
  std::uint32_t m = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    if (ctrl[i] == tag) {
      m |= 1u << i;
    }
  }
  return m;
}

TEST(SimdLevelTest, ActiveLevelNeverExceedsCompiled) {
  EXPECT_LE(static_cast<int>(util::simd::active_level()),
            static_cast<int>(util::simd::compiled_level()));
}

TEST(SimdLevelTest, ForceLevelRoundTrips) {
  const Level before = util::simd::active_level();
  {
    ForceLevelGuard guard(Level::Swar);
    EXPECT_EQ(util::simd::active_level(), Level::Swar);
    EXPECT_FALSE(util::simd::vectorized());
  }
  EXPECT_EQ(util::simd::active_level(), before);
}

TEST(SimdLevelTest, LevelNamesAreStable) {
  EXPECT_EQ(util::simd::level_name(Level::Swar), "swar");
  EXPECT_NE(util::simd::level_name(util::simd::compiled_level()), "");
}

TEST(SimdGroupTest, MatchEmptyIsExactOnBothPaths) {
  util::Rng rng(0xabcdef12u);
  alignas(64) std::array<std::uint8_t, 16> ctrl;
  for (int round = 0; round < 2000; ++round) {
    std::uint32_t expect = 0;
    for (int i = 0; i < 16; ++i) {
      const bool empty = (rng() & 3) == 0;
      ctrl[static_cast<std::size_t>(i)] =
          empty ? std::uint8_t{0x80}
                : static_cast<std::uint8_t>(rng() & 0x7f);
      expect |= empty ? (1u << i) : 0u;
    }
    EXPECT_EQ(Group16Swar::load(ctrl.data()).match_empty(), expect);
    EXPECT_EQ(Group16Vec::load(ctrl.data()).match_empty(), expect);
  }
}

TEST(SimdGroupTest, SwarMatchIsSupersetAndNeverFlagsEmptyBytes) {
  util::Rng rng(0x5eedf00du);
  alignas(64) std::array<std::uint8_t, 16> ctrl;
  for (int round = 0; round < 2000; ++round) {
    std::uint32_t empties = 0;
    for (int i = 0; i < 16; ++i) {
      const bool empty = (rng() & 3) == 0;
      ctrl[static_cast<std::size_t>(i)] =
          empty ? std::uint8_t{0x80}
                : static_cast<std::uint8_t>(rng() & 0x7f);
      empties |= empty ? (1u << i) : 0u;
    }
    const auto tag = static_cast<std::uint8_t>(rng() & 0x7f);
    const std::uint32_t exact = reference_match(ctrl.data(), tag);
    const std::uint32_t swar = Group16Swar::load(ctrl.data()).match(tag);
    // Superset of the exact matches...
    EXPECT_EQ(swar & exact, exact);
    // ...whose extras, if any, sit on full bytes only (the contract the
    // probe loop's correctness rests on).
    EXPECT_EQ(swar & empties, 0u);
  }
}

TEST(SimdGroupTest, VectorMatchIsExact) {
  if (util::simd::compiled_level() == Level::Swar) {
    GTEST_SKIP() << "Group16Vec aliases Group16Swar in this build "
                    "(BFHRF_SIMD=OFF or no vector ISA); over-reporting on "
                    "full bytes is its documented contract, covered by "
                    "SwarMatchIsSupersetAndNeverFlagsEmptyBytes.";
  }
  util::Rng rng(0x12345678u);
  alignas(64) std::array<std::uint8_t, 16> ctrl;
  for (int round = 0; round < 2000; ++round) {
    for (auto& c : ctrl) {
      c = (rng() & 3) == 0
              ? std::uint8_t{0x80}
              : static_cast<std::uint8_t>(rng() & 0x7f);
    }
    const auto tag = static_cast<std::uint8_t>(rng() & 0x7f);
    EXPECT_EQ(Group16Vec::load(ctrl.data()).match(tag),
              reference_match(ctrl.data(), tag));
  }
}

// --- dispatch equivalence on the real table ---------------------------------

/// Random keys over an `n_bits` universe, `count` of them, with repeats.
std::vector<std::uint64_t> random_keys(std::size_t n_bits, std::size_t count,
                                       std::uint64_t seed) {
  const std::size_t words = util::words_for_bits(n_bits);
  util::Rng rng(seed);
  std::vector<std::uint64_t> distinct((count / 2 + 1) * words);
  for (auto& w : distinct) {
    w = rng();
  }
  // Mask the top word so keys stay within the bit universe.
  const std::size_t tail_bits = n_bits % 64;
  if (tail_bits != 0) {
    const std::uint64_t tail_mask = (std::uint64_t{1} << tail_bits) - 1;
    for (std::size_t k = 0; k < distinct.size() / words; ++k) {
      distinct[k * words + words - 1] &= tail_mask;
    }
  }
  std::vector<std::uint64_t> keys;
  keys.reserve(count * words);
  const std::size_t n_distinct = distinct.size() / words;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t pick = rng.below(n_distinct);
    keys.insert(keys.end(), distinct.begin() + static_cast<std::ptrdiff_t>(
                                                   pick * words),
                distinct.begin() + static_cast<std::ptrdiff_t>(
                                       (pick + 1) * words));
  }
  return keys;
}

/// Build a table from `keys` at the CURRENT dispatch level and return every
/// observable: per-key frequencies, unique/total, the control bytes, and
/// the iteration image.
struct TableImage {
  std::vector<std::uint32_t> frequencies;
  std::vector<std::uint8_t> ctrl;
  std::size_t unique = 0;
  std::uint64_t total = 0;
  std::vector<std::pair<std::vector<std::uint64_t>, std::uint32_t>> contents;
};

TableImage build_image(std::size_t n_bits,
                       const std::vector<std::uint64_t>& keys,
                       core::KeyEncoding encoding) {
  const std::size_t words = util::words_for_bits(n_bits);
  const std::size_t count = keys.size() / words;
  core::FrequencyHash hash(n_bits, 0, encoding);
  hash.add_many(keys.data(), count, nullptr);
  TableImage img;
  img.frequencies.resize(count);
  hash.frequency_many(keys.data(), count, img.frequencies.data());
  img.unique = hash.unique_count();
  img.total = hash.total_count();
  img.ctrl.assign(hash.directory().ctrl_bytes().begin(),
                  hash.directory().ctrl_bytes().end());
  hash.for_each([&](util::ConstWordSpan key, std::uint32_t freq) {
    img.contents.emplace_back(
        std::vector<std::uint64_t>(key.begin(), key.end()), freq);
  });
  return img;
}

TEST(SimdDispatchTest, TableStateIsByteIdenticalAcrossLevels) {
  // n spans the one-word fast path boundary (63/64) and multi-word keys;
  // both key encodings probe through the same dispatched group code.
  for (const auto encoding :
       {core::KeyEncoding::Raw, core::KeyEncoding::Sparse}) {
    for (const std::size_t n_bits : {std::size_t{63}, std::size_t{64},
                                     std::size_t{65}, std::size_t{1000}}) {
      const auto keys = random_keys(n_bits, 4096, 0x9e3779b9u ^ n_bits);
      TableImage swar;
      {
        ForceLevelGuard guard(Level::Swar);
        swar = build_image(n_bits, keys, encoding);
      }
      const TableImage vec =
          build_image(n_bits, keys, encoding);  // native dispatch
      const std::string where =
          "n_bits=" + std::to_string(n_bits) +
          (encoding == core::KeyEncoding::Sparse ? " sparse" : " raw");
      EXPECT_EQ(swar.unique, vec.unique) << where;
      EXPECT_EQ(swar.total, vec.total) << where;
      EXPECT_EQ(swar.frequencies, vec.frequencies) << where;
      // Insertion positions identical => control bytes and for_each order
      // identical too.
      EXPECT_EQ(swar.ctrl, vec.ctrl) << where;
      EXPECT_EQ(swar.contents, vec.contents) << where;
    }
  }
}

TEST(SimdDispatchTest, BitsetKernelsAgreeAcrossLevels) {
  util::Rng rng(0xb17e5e7u);
  for (const std::size_t words :
       {std::size_t{1}, std::size_t{7}, std::size_t{8}, std::size_t{33}}) {
    std::vector<std::uint64_t> a(words);
    std::vector<std::uint64_t> b(words);
    for (std::size_t i = 0; i < words; ++i) {
      a[i] = rng();
      b[i] = rng();
    }
    const util::ConstWordSpan sa{a.data(), words};
    const util::ConstWordSpan sb{b.data(), words};
    std::array<std::size_t, 5> swar_counts;
    std::array<std::vector<std::uint64_t>, 2> swar_canon;
    {
      ForceLevelGuard guard(Level::Swar);
      swar_counts = {util::popcount_and(sa, sb), util::popcount_or(sa, sb),
                     util::popcount_xor(sa, sb),
                     util::popcount_andnot(sa, sb), util::popcount_words(sa)};
      for (const bool flip : {false, true}) {
        auto& dst = swar_canon[flip ? 1 : 0];
        dst.resize(words);
        util::store_canonical(dst.data(), a.data(), b.data(), flip, words);
      }
    }
    const std::array<std::size_t, 5> vec_counts = {
        util::popcount_and(sa, sb), util::popcount_or(sa, sb),
        util::popcount_xor(sa, sb), util::popcount_andnot(sa, sb),
        util::popcount_words(sa)};
    EXPECT_EQ(swar_counts, vec_counts) << "words=" << words;
    for (const bool flip : {false, true}) {
      std::vector<std::uint64_t> dst(words);
      util::store_canonical(dst.data(), a.data(), b.data(), flip, words);
      EXPECT_EQ(dst, swar_canon[flip ? 1 : 0])
          << "words=" << words << " flip=" << flip;
      // And against the definition: side ^ (mask when flipping).
      for (std::size_t i = 0; i < words; ++i) {
        EXPECT_EQ(dst[i], flip ? (a[i] ^ b[i]) : a[i]);
      }
    }
  }
}

}  // namespace
}  // namespace bfhrf
