// Robustness ("fuzz-lite") suite: randomly corrupted inputs must either
// parse to a valid tree or throw a typed bfhrf::Error — never crash,
// hang, or corrupt state. Every test draws its seed through
// test::fuzz_seed, so the defaults are deterministic yet any failure can
// be replayed with `--seed=N` (or BFHRF_FUZZ_SEED); the seed is printed
// up front and attached to assertion traces.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/bfhrf.hpp"
#include "core/frequency_hash.hpp"
#include "phylo/newick.hpp"
#include "phylo/nexus.hpp"
#include "support/test_util.hpp"
#include "util/rng.hpp"

namespace bfhrf {
namespace {

/// Apply `edits` random single-character mutations (replace/insert/delete).
std::string mutate(std::string s, std::size_t edits, util::Rng& rng) {
  static constexpr char kAlphabet[] = "(),;:'[]ABC012. \t_-e";
  for (std::size_t e = 0; e < edits && !s.empty(); ++e) {
    const std::size_t pos = rng.below(s.size());
    switch (rng.below(3)) {
      case 0:
        s[pos] = kAlphabet[rng.below(sizeof kAlphabet - 1)];
        break;
      case 1:
        s.insert(pos, 1, kAlphabet[rng.below(sizeof kAlphabet - 1)]);
        break;
      default:
        s.erase(pos, 1);
        break;
    }
  }
  return s;
}

TEST(FuzzTest, MutatedNewickNeverCrashes) {
  const std::uint64_t seed = test::fuzz_seed(0xF422);
  SCOPED_TRACE("seed=" + test::hex_seed(seed));
  util::Rng rng(seed);
  const auto taxa = phylo::TaxonSet::make_numbered(12);
  const std::string base =
      phylo::write_newick(sim::yule_tree(taxa, rng));

  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (int rep = 0; rep < 2000; ++rep) {
    const std::string input = mutate(base, 1 + rng.below(6), rng);
    auto scratch = std::make_shared<phylo::TaxonSet>();
    try {
      const phylo::Tree t = phylo::parse_newick(input, scratch);
      t.validate();  // anything accepted must be structurally sound
      ++parsed;
    } catch (const Error&) {
      ++rejected;
    }
  }
  // Both outcomes must occur — all-rejected would mean the mutator is too
  // harsh to exercise the accept path, all-accepted that errors are eaten.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(FuzzTest, MutatedNexusNeverCrashes) {
  const std::uint64_t seed = test::fuzz_seed(0xF423);
  SCOPED_TRACE("seed=" + test::hex_seed(seed));
  util::Rng rng(seed);
  const std::string base =
      "#NEXUS\nBEGIN TAXA;\n TAXLABELS A B C D E;\nEND;\n"
      "BEGIN TREES;\n TRANSLATE 1 A, 2 B, 3 C, 4 D, 5 E;\n"
      " TREE t = [&U] ((1,2),(3,4),5);\nEND;\n";
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (int rep = 0; rep < 1000; ++rep) {
    const std::string input = mutate(base, 1 + rng.below(8), rng);
    std::istringstream in(input);
    try {
      const phylo::NexusData data = phylo::read_nexus(in);
      for (const auto& t : data.trees) {
        EXPECT_GT(t.num_leaves(), 0u);
      }
      ++parsed;
    } catch (const Error&) {
      ++rejected;
    }
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(FuzzTest, TruncatedNewickAlwaysRejectedOrValid) {
  const std::uint64_t seed = test::fuzz_seed(0xF424);
  SCOPED_TRACE("seed=" + test::hex_seed(seed));
  util::Rng rng(seed);
  const auto taxa = phylo::TaxonSet::make_numbered(20);
  const std::string base = phylo::write_newick(
      sim::yule_tree(taxa, rng, sim::GeneratorOptions{.branch_lengths = true}));
  for (std::size_t cut = 0; cut < base.size(); ++cut) {
    auto scratch = std::make_shared<phylo::TaxonSet>();
    try {
      const phylo::Tree t =
          phylo::parse_newick(base.substr(0, cut), scratch);
      t.validate();
    } catch (const Error&) {
      // expected for most prefixes
    }
  }
}

TEST(FuzzTest, GarbageBytesRejected) {
  const std::uint64_t seed = test::fuzz_seed(0xF425);
  SCOPED_TRACE("seed=" + test::hex_seed(seed));
  util::Rng rng(seed);
  for (int rep = 0; rep < 500; ++rep) {
    std::string garbage(1 + rng.below(64), '\0');
    for (auto& c : garbage) {
      c = static_cast<char>(32 + rng.below(95));
    }
    auto scratch = std::make_shared<phylo::TaxonSet>();
    try {
      const phylo::Tree t = phylo::parse_newick(garbage, scratch);
      t.validate();
    } catch (const Error&) {
    }
  }
}

TEST(FuzzTest, EngineSurvivesAdversarialCollections) {
  // Collections mixing tiny trees, stars, caterpillars and multifurcations
  // over one namespace: every engine path must stay exact or throw typed.
  const auto taxa = phylo::TaxonSet::make_numbered(9);
  const std::uint64_t seed = test::fuzz_seed(0xF426);
  SCOPED_TRACE("seed=" + test::hex_seed(seed));
  util::Rng rng(seed);
  std::vector<phylo::Tree> zoo;
  zoo.push_back(sim::caterpillar_tree(taxa, rng));
  zoo.push_back(sim::multifurcating_tree(taxa, rng, 0.9));
  zoo.push_back(sim::multifurcating_tree(taxa, rng, 0.0));
  {
    phylo::Tree star(taxa);
    const auto root = star.add_root();
    for (phylo::TaxonId i = 0; i < 9; ++i) {
      star.add_leaf(root, i);
    }
    zoo.push_back(std::move(star));
  }
  const auto avg = core::bfhrf_average_rf(zoo, zoo, {.threads = 2});
  ASSERT_EQ(avg.size(), zoo.size());
  for (const double v : avg) {
    EXPECT_GE(v, 0.0);
  }
  // Compressed path agrees on the zoo too.
  const auto comp =
      core::bfhrf_average_rf(zoo, zoo, {.compressed_keys = true});
  for (std::size_t i = 0; i < avg.size(); ++i) {
    EXPECT_DOUBLE_EQ(comp[i], avg[i]);
  }
}

TEST(FuzzTest, FrequencyHashInvariantsUnderRandomOps) {
  // The group-probed table is insert-only (no tombstones), so a random mix
  // of single adds, weighted adds and batched adds must keep four
  // invariants at every step: load factor never exceeds 0.7,
  // every mirrored key looks up to its exact count, for_each visits each
  // unique key exactly once, and counts never decrease.
  const std::uint64_t seed = test::fuzz_seed(0xF425);
  SCOPED_TRACE("seed=" + test::hex_seed(seed));
  util::Rng rng(seed);
  const std::size_t n_bits = 80;  // two words: exercises the memcmp verify

  core::FrequencyHash hash(n_bits);
  std::map<std::string, std::uint64_t> mirror;
  std::uint64_t total = 0;

  const auto random_key = [&] {
    util::DynamicBitset b(n_bits);
    const std::size_t ones = 1 + rng.below(5);
    for (std::size_t j = 0; j < ones; ++j) {
      b.set(rng.below(n_bits));
    }
    return b;
  };

  for (int op = 0; op < 600; ++op) {
    switch (rng.below(3)) {
      case 0: {  // single add
        const auto k = random_key();
        hash.add(k.words());
        mirror[k.to_string()] += 1;
        total += 1;
        break;
      }
      case 1: {  // weighted add (weight a pure function of the key)
        const auto k = random_key();
        const auto count = static_cast<std::uint32_t>(1 + rng.below(4));
        hash.add_weighted(k.words(), count,
                          0.5 + static_cast<double>(k.count()));
        mirror[k.to_string()] += count;
        total += count;
        break;
      }
      default: {  // batched add
        const std::size_t batch = 1 + rng.below(64);
        std::vector<std::uint64_t> arena;
        for (std::size_t i = 0; i < batch; ++i) {
          const auto k = random_key();
          arena.insert(arena.end(), k.words().begin(), k.words().end());
          mirror[k.to_string()] += 1;
        }
        hash.add_many(arena.data(), batch, nullptr);
        total += batch;
        break;
      }
    }
    ASSERT_LE(hash.load_factor(), 0.7) << "op=" << op;
    ASSERT_EQ(hash.total_count(), total) << "op=" << op;
    ASSERT_EQ(hash.unique_count(), mirror.size()) << "op=" << op;
  }

  // Mirror-exact lookups and a one-visit-per-key iteration image.
  std::size_t visited = 0;
  hash.for_each([&](util::ConstWordSpan key, std::uint32_t count) {
    ++visited;
    const auto s = util::DynamicBitset(n_bits, key).to_string();
    const auto it = mirror.find(s);
    ASSERT_NE(it, mirror.end());
    EXPECT_EQ(count, it->second);
  });
  EXPECT_EQ(visited, hash.unique_count());
  for (const auto& [s, count] : mirror) {
    EXPECT_EQ(hash.frequency(util::DynamicBitset::from_string(s).words()),
              count);
  }
}

}  // namespace
}  // namespace bfhrf
