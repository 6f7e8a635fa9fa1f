// Shared helpers for the bfhrf test suites.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "core/sharded_hash.hpp"
#include "phylo/newick.hpp"
#include "phylo/taxon_set.hpp"
#include "phylo/tree.hpp"
#include "sim/generators.hpp"
#include "sim/moves.hpp"
#include "util/rng.hpp"

namespace bfhrf::test {

inline std::string hex_seed(std::uint64_t seed) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%llX",
                static_cast<unsigned long long>(seed));
  return buf;
}

/// Seed for a randomized test. BFHRF_FUZZ_SEED (set directly or via the
/// `--seed=N` flag handled in support/test_main.cpp; decimal or 0x-hex)
/// overrides `default_seed`. The seed is announced on stdout so a run that
/// dies before gtest reports is still reproducible; pair it with a
/// SCOPED_TRACE so ordinary assertion failures carry it too.
inline std::uint64_t fuzz_seed(std::uint64_t default_seed) {
  const char* env = std::getenv("BFHRF_FUZZ_SEED");
  const std::uint64_t seed = (env != nullptr && *env != '\0')
                                 ? std::strtoull(env, nullptr, 0)
                                 : default_seed;
  std::printf("[fuzz] seed=%s (replay with --seed=%s)\n",
              hex_seed(seed).c_str(), hex_seed(seed).c_str());
  return seed;
}

/// Parse a Newick string over a fresh taxon set.
inline phylo::Tree tree_of(const std::string& newick,
                           phylo::TaxonSetPtr& taxa_out) {
  taxa_out = std::make_shared<phylo::TaxonSet>();
  return phylo::parse_newick(newick, taxa_out);
}

/// Parse a Newick string over an existing taxon set.
inline phylo::Tree tree_of(const std::string& newick,
                           const phylo::TaxonSetPtr& taxa) {
  return phylo::parse_newick(newick, taxa);
}

/// A random collection clustered around one base topology — the shape of
/// real gene-tree data (and of the paper's simulated sets).
inline std::vector<phylo::Tree> random_collection(
    const phylo::TaxonSetPtr& taxa, std::size_t count, std::size_t moves,
    util::Rng& rng, bool branch_lengths = false) {
  const sim::GeneratorOptions opts{.branch_lengths = branch_lengths};
  const phylo::Tree base = sim::yule_tree(taxa, rng, opts);
  std::vector<phylo::Tree> trees;
  trees.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    phylo::Tree t = base;
    sim::perturb(t, rng, moves);
    trees.push_back(std::move(t));
  }
  return trees;
}

/// Fully independent random trees (maximally spread collection).
inline std::vector<phylo::Tree> independent_collection(
    const phylo::TaxonSetPtr& taxa, std::size_t count, util::Rng& rng) {
  std::vector<phylo::Tree> trees;
  trees.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    trees.push_back(sim::uniform_tree(taxa, rng));
  }
  return trees;
}

/// A Newick file under the test temp dir, removed on scope exit: a tree
/// collection (one record per tree, as phylo::write_newick_file writes it)
/// or raw text. Tests stream it through core::FileTreeSource, the engine's
/// one streamed-tree route. ctest runs every test as its own process,
/// concurrently, so paths carry the pid and a per-process serial.
class TempNewick {
 public:
  TempNewick(const std::string& name, std::span<const phylo::Tree> trees)
      : path_(make_path(name)) {
    phylo::write_newick_file(path_, trees);
  }
  TempNewick(const std::string& name, const std::string& text)
      : path_(make_path(name)) {
    std::ofstream(path_) << text;
  }
  ~TempNewick() { std::remove(path_.c_str()); }
  TempNewick(const TempNewick&) = delete;
  TempNewick& operator=(const TempNewick&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  static std::string make_path(const std::string& name) {
    static std::atomic<unsigned> serial{0};
    return ::testing::TempDir() + "bfhrf_" + std::to_string(::getpid()) +
           "_" + std::to_string(serial++) + "_" + name + ".nwk";
  }

  std::string path_;
};

/// A store's contents as a comparable value: sorted (key words, count).
inline std::vector<std::pair<std::vector<std::uint64_t>, std::uint32_t>>
store_image(const core::BfhIndexView& store) {
  std::vector<std::pair<std::vector<std::uint64_t>, std::uint32_t>> img;
  store.for_each_key([&](util::ConstWordSpan key, std::uint32_t count) {
    img.emplace_back(std::vector<std::uint64_t>(key.begin(), key.end()),
                     count);
  });
  std::sort(img.begin(), img.end());
  return img;
}

/// The lanes a Bfhrf build or query at `threads` runs: threads on a
/// multi-core host, one (inline) when threads <= 1 or on a 1-core host.
inline std::size_t expected_lanes(std::size_t threads) {
  return threads > 1 && std::thread::hardware_concurrency() > 1 ? threads
                                                                 : 1;
}

/// The shards a Bfhrf build at `threads` must produce: bit_ceil(lanes)
/// when the build has more than one lane, else one table.
inline std::size_t expected_shards(std::size_t threads) {
  const std::size_t lanes = expected_lanes(threads);
  return lanes > 1 ? std::bit_ceil(std::min<std::size_t>(lanes, 64)) : 1;
}

}  // namespace bfhrf::test
