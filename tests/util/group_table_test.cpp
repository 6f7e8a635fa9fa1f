// GroupDirectory probe tests (util/group_table.hpp).
//
// Tables are add-only, so a probe ends at the first group holding an EMPTY
// byte: a key displaced out of a full home group must still be found in
// the next group, and a miss reports that group's first EMPTY byte as the
// insertion point. Both must hold at native and SWAR dispatch, which the
// mixed insert sweep also pins on the real FrequencyHash, across the
// directory erasures its growth rehashes make.
#include "util/group_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "core/frequency_hash.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace bfhrf {
namespace {

using util::GroupDirectory;
using util::kGroupWidth;
using util::simd::Level;

/// Restores autodetected dispatch no matter how a test exits.
struct ForceLevelGuard {
  explicit ForceLevelGuard(Level level) {
    util::simd::set_force_level(level);
  }
  ~ForceLevelGuard() { util::simd::set_force_level(std::nullopt); }
};

/// Synthetic fingerprint whose home group and 7-bit tag are chosen
/// directly (slot hash = fp >> 7, tag = fp & 0x7f).
constexpr std::uint64_t fp_for(std::size_t group, std::uint8_t tag) {
  return (static_cast<std::uint64_t>(group) << 7) | tag;
}

/// Minimal occupant model: the directory plus a per-slot fingerprint, so
/// the eq predicate resolves exactly like a real table's full-key check.
struct ModelTable {
  GroupDirectory dir;
  std::vector<std::uint64_t> fps;

  explicit ModelTable(std::size_t slots) : fps(slots, 0) {
    dir.reset(slots);
  }

  [[nodiscard]] GroupDirectory::FindResult find(std::uint64_t fp) const {
    return dir.find(fp, [&](std::size_t i) { return fps[i] == fp; });
  }

  std::size_t insert(std::uint64_t fp) {
    const auto r = find(fp);
    EXPECT_FALSE(r.found) << "duplicate insert";
    dir.mark(r.index, fp);
    fps[r.index] = fp;
    return r.index;
  }
};

TEST(GroupTableTest, ProbeChainCrossesFullGroup) {
  for (const Level level : {util::simd::active_level(), Level::Swar}) {
    ForceLevelGuard guard(level);
    ModelTable t(64);  // 4 groups
    // 17 keys homed on group 2: sixteen fill it, the 17th displaces into
    // the first slot of group 3.
    std::vector<std::size_t> slots;
    for (std::uint8_t tag = 0; tag < 17; ++tag) {
      slots.push_back(t.insert(fp_for(2, tag)));
    }
    for (std::size_t i = 0; i < kGroupWidth; ++i) {
      EXPECT_TRUE(t.dir.occupied(2 * kGroupWidth + i));
    }
    const std::size_t overflow = slots.back();
    ASSERT_EQ(overflow, 3 * kGroupWidth) << "17th key did not displace";

    // The full home group holds no EMPTY byte, so the probe walks on into
    // group 3 and finds the displaced key there.
    const auto hit = t.find(fp_for(2, 16));
    EXPECT_TRUE(hit.found);
    EXPECT_EQ(hit.index, overflow);
    EXPECT_EQ(hit.groups_probed, 2u);

    // An absent key homed on the full group reports the first EMPTY byte
    // of the next group as its insertion point.
    const auto miss = t.find(fp_for(2, 0x55));
    EXPECT_FALSE(miss.found);
    EXPECT_EQ(miss.index, 3 * kGroupWidth + 1);
    EXPECT_EQ(miss.groups_probed, 2u);
  }
}

// --- dispatch equivalence under a mixed insert workload ---------------------

/// The full observable state of a FrequencyHash after a deterministic mixed
/// insert workload at the CURRENT dispatch level: control bytes, unique and
/// total counts, and the iteration image.
struct MixedImage {
  std::vector<std::uint8_t> ctrl;
  std::size_t unique = 0;
  std::uint64_t total = 0;
  std::vector<std::pair<std::vector<std::uint64_t>, std::uint32_t>> contents;
};

MixedImage mixed_image(std::size_t n_bits, std::uint64_t seed) {
  const std::size_t words = util::words_for_bits(n_bits);
  const std::size_t tail_bits = n_bits % 64;
  const std::uint64_t tail_mask =
      tail_bits == 0 ? ~std::uint64_t{0}
                     : (std::uint64_t{1} << tail_bits) - 1;
  util::Rng rng(seed);

  // 1000 distinct keys (rare post-mask duplicates are skipped, keeping the
  // sequence identical across dispatch levels).
  std::vector<std::vector<std::uint64_t>> keys;
  std::map<std::vector<std::uint64_t>, bool> seen;
  while (keys.size() < 1000) {
    std::vector<std::uint64_t> k(words);
    for (auto& w : k) {
      w = rng();
    }
    k[words - 1] &= tail_mask;
    if (!seen.emplace(k, true).second) {
      continue;
    }
    keys.push_back(std::move(k));
  }

  const auto span = [&](std::size_t i) {
    return util::ConstWordSpan{keys[i].data(), words};
  };
  // Start empty so growth rehashes land mid-stream: each one erases the
  // whole directory (GroupDirectory::reset) and reinserts every key.
  core::FrequencyHash hash(n_bits, 0);
  for (std::size_t i = 0; i < 600; ++i) {
    hash.add(span(i), static_cast<std::uint32_t>(1 + i % 3));
  }
  // Repeat hits on every second stored key...
  for (std::size_t i = 0; i < 600; i += 2) {
    hash.add(span(i));
  }
  // ...then one batched insert of every fourth stored key plus the 400 not
  // yet stored, pre-sized and rehashed up front.
  std::vector<std::uint64_t> batch;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i >= 600 || i % 4 == 0) {
      batch.insert(batch.end(), keys[i].begin(), keys[i].end());
    }
  }
  hash.add_many(batch.data(), batch.size() / words, nullptr);

  MixedImage img;
  img.ctrl.assign(hash.directory().ctrl_bytes().begin(),
                  hash.directory().ctrl_bytes().end());
  img.unique = hash.unique_count();
  img.total = hash.total_count();
  hash.for_each([&](util::ConstWordSpan key, std::uint32_t freq) {
    img.contents.emplace_back(
        std::vector<std::uint64_t>(key.begin(), key.end()), freq);
  });
  return img;
}

TEST(GroupTableTest, MixedInsertEraseIsByteIdenticalAcrossLevels) {
  // n spans the one-word fast path boundary (63/64) and multi-word keys.
  for (const std::size_t n_bits : {std::size_t{63}, std::size_t{64},
                                   std::size_t{65}, std::size_t{1000}}) {
    MixedImage swar;
    {
      ForceLevelGuard guard(Level::Swar);
      swar = mixed_image(n_bits, 0xd1d0 ^ n_bits);
    }
    const MixedImage vec = mixed_image(n_bits, 0xd1d0 ^ n_bits);  // native
    EXPECT_EQ(swar.unique, 1000u) << "n_bits=" << n_bits;
    EXPECT_EQ(swar.unique, vec.unique) << "n_bits=" << n_bits;
    EXPECT_EQ(swar.total, vec.total) << "n_bits=" << n_bits;
    EXPECT_EQ(swar.ctrl, vec.ctrl) << "n_bits=" << n_bits;
    EXPECT_EQ(swar.contents, vec.contents) << "n_bits=" << n_bits;
  }
}

}  // namespace
}  // namespace bfhrf
