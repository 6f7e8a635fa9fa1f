#include "qc/metamorphic.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <sstream>

#include "core/all_pairs.hpp"
#include "core/bfhrf.hpp"
#include "core/day.hpp"
#include "core/restrict.hpp"
#include "core/rf.hpp"
#include "phylo/bipartition.hpp"
#include "phylo/newick.hpp"
#include "phylo/nexus.hpp"
#include "phylo/vector_codec.hpp"
#include "qc/tree_ops.hpp"
#include "sim/moves.hpp"
#include "util/bitset.hpp"
#include "util/error.hpp"

namespace bfhrf::qc {
namespace {

using phylo::NodeId;
using phylo::TaxonId;
using phylo::Tree;

std::string format_seed(std::uint64_t seed) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%llX",
                static_cast<unsigned long long>(seed));
  return buf;
}

void fail(InvariantReport& report, const std::string& invariant,
          const std::string& detail) {
  report.failures.push_back({invariant, detail});
}

/// Sampled tree indices (without replacement when possible).
std::vector<std::size_t> sample_indices(std::size_t count, std::size_t want,
                                        util::Rng& rng) {
  std::vector<std::size_t> all(count);
  std::iota(all.begin(), all.end(), std::size_t{0});
  rng.shuffle(all);
  all.resize(std::min(count, want));
  return all;
}

/// Pairwise RF through the oracle path (sorted-merge sets, no hashing).
std::size_t seq_rf(const Tree& a, const Tree& b, bool include_trivial) {
  const phylo::BipartitionOptions o{.include_trivial = include_trivial};
  const auto sa = phylo::extract_bipartitions(a, o);
  const auto sb = phylo::extract_bipartitions(b, o);
  return phylo::BipartitionSet::symmetric_difference_size(sa, sb);
}

/// Single-pair RF through the BFHRF hash (one-tree reference build).
double bfhrf_rf(const Tree& query, const Tree& reference,
                bool include_trivial) {
  core::BfhrfOptions o;
  o.include_trivial = include_trivial;
  core::Bfhrf engine(reference.taxa()->size(), o);
  engine.build({&reference, 1});
  return engine.query_one(query);
}

}  // namespace

std::string InvariantReport::summary() const {
  std::string out;
  if (ok()) {
    out = "invariants OK: " + std::to_string(invariants_run.size()) +
          " invariants, " + std::to_string(checks) + " checks";
  } else {
    out = "invariants FAILED: " + std::to_string(failures.size()) +
          " failure(s)";
    const std::size_t show = std::min<std::size_t>(failures.size(), 8);
    for (std::size_t i = 0; i < show; ++i) {
      out += "\n  " + failures[i].to_string();
    }
    if (failures.size() > show) {
      out += "\n  ... " + std::to_string(failures.size() - show) + " more";
    }
  }
  if (seed != 0) {
    out += "\n  seed=" + format_seed(seed) +
           " (replay with --seed=" + format_seed(seed) + ")";
  }
  return out;
}

void check_relabeling(std::span<const Tree> trees, util::Rng& rng,
                      const InvariantOptions& opts, InvariantReport& report) {
  report.invariants_run.push_back("relabeling");
  if (trees.empty()) {
    return;
  }
  const std::size_t n = trees[0].taxa()->size();
  std::vector<TaxonId> perm(n);
  std::iota(perm.begin(), perm.end(), TaxonId{0});
  rng.shuffle(perm);

  std::vector<Tree> relabeled;
  relabeled.reserve(trees.size());
  for (const Tree& t : trees) {
    relabeled.push_back(relabel_taxa(t, perm));
  }
  const core::AllPairsOptions ao{.include_trivial = opts.include_trivial};
  const auto before = core::all_pairs_rf(trees, ao);
  const auto after = core::all_pairs_rf(relabeled, ao);
  for (std::size_t i = 0; i < trees.size(); ++i) {
    for (std::size_t j = i + 1; j < trees.size(); ++j) {
      ++report.checks;
      if (before.at(i, j) != after.at(i, j)) {
        fail(report, "relabeling",
             "RF(" + std::to_string(i) + "," + std::to_string(j) +
                 ") changed under taxon permutation: " +
                 std::to_string(before.at(i, j)) + " -> " +
                 std::to_string(after.at(i, j)));
      }
    }
  }
}

void check_rerooting(std::span<const Tree> trees, util::Rng& rng,
                     const InvariantOptions& opts, InvariantReport& report) {
  report.invariants_run.push_back("rerooting");
  for (const std::size_t idx :
       sample_indices(trees.size(), opts.samples, rng)) {
    const Tree& t = trees[idx];
    const auto internals = internal_nonroot_nodes(t);
    if (internals.empty()) {
      continue;  // star tree: nothing to reroot at
    }
    const NodeId pick = internals[rng.below(internals.size())];
    const Tree rerooted = reroot_at(t, pick);
    rerooted.validate();
    ++report.checks;
    const std::size_t d = seq_rf(t, rerooted, opts.include_trivial);
    if (d != 0) {
      fail(report, "rerooting",
           "tree " + std::to_string(idx) + " rerooted at node " +
               std::to_string(pick) + " has RF " + std::to_string(d) +
               " != 0");
    }
    ++report.checks;
    const double h = bfhrf_rf(rerooted, t, opts.include_trivial);
    if (h != 0.0) {
      fail(report, "rerooting",
           "tree " + std::to_string(idx) +
               " rerooted: BFHRF distance " + std::to_string(h) + " != 0");
    }
  }
}

void check_duplicates(std::span<const Tree> trees, util::Rng& rng,
                      const InvariantOptions& opts, InvariantReport& report) {
  report.invariants_run.push_back("duplicate-zero");
  for (const std::size_t idx :
       sample_indices(trees.size(), opts.samples, rng)) {
    const Tree& t = trees[idx];
    const Tree copy = t;
    ++report.checks;
    if (seq_rf(t, copy, opts.include_trivial) != 0) {
      fail(report, "duplicate-zero",
           "tree " + std::to_string(idx) + ": RF(T, copy) != 0 (sequential)");
    }
    ++report.checks;
    if (bfhrf_rf(copy, t, opts.include_trivial) != 0.0) {
      fail(report, "duplicate-zero",
           "tree " + std::to_string(idx) + ": RF(T, copy) != 0 (bfhrf)");
    }
    if (t.is_binary()) {
      ++report.checks;
      if (core::day_rf(t, copy) != 0) {
        fail(report, "duplicate-zero",
             "tree " + std::to_string(idx) + ": RF(T, copy) != 0 (day)");
      }
    }
  }
}

void check_pruning(std::span<const Tree> trees, util::Rng& rng,
                   const InvariantOptions& opts, InvariantReport& report) {
  report.invariants_run.push_back("pruning-monotonic");
  if (trees.size() < 2) {
    return;
  }
  const util::DynamicBitset common = core::common_taxa(trees);
  std::vector<std::size_t> shared;
  common.for_each_set_bit([&](std::size_t b) { shared.push_back(b); });
  if (shared.size() < 5) {
    return;  // need a strict subset of >= 4 taxa
  }

  // Identity: restricting to all shared taxa changes nothing (for trees
  // already on exactly the shared set this is the no-op path).
  {
    const Tree& t = trees[rng.below(trees.size())];
    const Tree same = core::restrict_to_taxa(t, common);
    ++report.checks;
    if (seq_rf(t, same, opts.include_trivial) != 0 &&
        t.num_leaves() == shared.size()) {
      fail(report, "pruning-monotonic",
           "restricting to all shared taxa is not the identity");
    }
  }

  for (std::size_t s = 0; s < opts.samples; ++s) {
    const std::size_t i = rng.below(trees.size());
    const std::size_t j = rng.below(trees.size());
    if (i == j) {
      continue;
    }
    // Random strict subset of the shared taxa, size in [4, |shared|-1].
    std::vector<std::size_t> pool = shared;
    rng.shuffle(pool);
    const std::size_t keep_n =
        4 + rng.below(pool.size() - 4);  // 4 .. |shared|-1
    util::DynamicBitset keep(common.size());
    for (std::size_t k = 0; k < keep_n; ++k) {
      keep.set(pool[k]);
    }
    const Tree ri = core::restrict_to_taxa(trees[i], keep);
    const Tree rj = core::restrict_to_taxa(trees[j], keep);
    ++report.checks;
    const std::size_t full = seq_rf(trees[i], trees[j], false);
    const std::size_t restricted = seq_rf(ri, rj, false);
    if (restricted > full) {
      fail(report, "pruning-monotonic",
           "RF increased under leaf pruning: pair (" + std::to_string(i) +
               "," + std::to_string(j) + ") " + std::to_string(full) +
               " -> " + std::to_string(restricted) + " with " +
               std::to_string(keep_n) + " kept taxa");
    }
  }
}

void check_nni_delta(std::span<const Tree> trees, util::Rng& rng,
                     const InvariantOptions& opts, InvariantReport& report) {
  report.invariants_run.push_back("nni-delta");
  for (const std::size_t idx :
       sample_indices(trees.size(), opts.samples, rng)) {
    if (!trees[idx].is_binary()) {
      continue;
    }
    Tree moved = trees[idx];
    sim::random_nni(moved, rng);
    ++report.checks;
    const std::size_t d = seq_rf(trees[idx], moved, false);
    if (d > 2) {
      fail(report, "nni-delta",
           "single NNI moved tree " + std::to_string(idx) + " by RF " +
               std::to_string(d) + " > 2");
    }
    if (moved.is_binary()) {
      ++report.checks;
      if (core::day_rf(trees[idx], moved) != d) {
        fail(report, "nni-delta",
             "Day and sequential disagree on the NNI pair for tree " +
                 std::to_string(idx));
      }
    }
  }
}

void check_round_trip(std::span<const Tree> trees, util::Rng& rng,
                      const InvariantOptions& opts, InvariantReport& report) {
  report.invariants_run.push_back("round-trip");
  const auto sampled = sample_indices(trees.size(), opts.samples, rng);

  for (const std::size_t idx : sampled) {
    const Tree& t = trees[idx];
    const std::string once = phylo::write_newick(t);
    const Tree parsed = phylo::parse_newick(once, t.taxa());
    parsed.validate();
    ++report.checks;
    const std::string twice = phylo::write_newick(parsed);
    if (once != twice) {
      fail(report, "round-trip",
           "Newick write->parse->write not idempotent for tree " +
               std::to_string(idx) + ": '" + once + "' vs '" + twice + "'");
    }
    ++report.checks;
    if (seq_rf(t, parsed, opts.include_trivial) != 0) {
      fail(report, "round-trip",
           "Newick round trip moved tree " + std::to_string(idx));
    }
  }

  // Nexus: serialize a TREES block by hand from the Newick forms, re-read
  // through the Nexus parser, and require zero distance per tree.
  if (!sampled.empty()) {
    std::string nexus = "#NEXUS\nBEGIN TREES;\n";
    for (const std::size_t idx : sampled) {
      nexus += "TREE t" + std::to_string(idx) + " = " +
               phylo::write_newick(trees[idx]) + "\n";
    }
    nexus += "END;\n";
    std::istringstream in(nexus);
    const phylo::NexusData data = phylo::read_nexus(in, trees[0].taxa());
    if (data.trees.size() != sampled.size()) {
      fail(report, "round-trip",
           "Nexus re-read returned " + std::to_string(data.trees.size()) +
               " trees, expected " + std::to_string(sampled.size()));
    } else {
      for (std::size_t k = 0; k < sampled.size(); ++k) {
        ++report.checks;
        if (seq_rf(trees[sampled[k]], data.trees[k],
                   opts.include_trivial) != 0) {
          fail(report, "round-trip",
               "Nexus round trip moved tree " + std::to_string(sampled[k]));
        }
      }
    }
  }
}

void check_saturation(std::span<const Tree> trees,
                      const InvariantOptions& /*opts*/,
                      InvariantReport& report) {
  report.invariants_run.push_back("max-rf-saturation");
  if (trees.empty()) {
    return;
  }
  const auto& taxa = trees[0].taxa();
  const std::size_t n = taxa->size();
  if (n < 5) {
    return;  // max RF is 0 or 2; saturation is vacuous
  }
  std::vector<TaxonId> identity(n);
  std::iota(identity.begin(), identity.end(), TaxonId{0});
  const Tree a = caterpillar_with_order(taxa, identity);
  const Tree b = caterpillar_with_order(taxa, riffle_order(n));

  const std::size_t expected = 2 * (n - 3);
  ++report.checks;
  const std::size_t d = seq_rf(a, b, false);
  if (d != expected) {
    fail(report, "max-rf-saturation",
         "identity vs riffle caterpillar: RF " + std::to_string(d) +
             " != max " + std::to_string(expected));
  }
  ++report.checks;
  const phylo::BipartitionOptions bo;
  const auto sa = phylo::extract_bipartitions(a, bo);
  const auto sb = phylo::extract_bipartitions(b, bo);
  if (core::max_rf(sa, sb) != expected) {
    fail(report, "max-rf-saturation",
         "max_rf accounting disagrees with 2(n-3)");
  }
  ++report.checks;
  if (core::day_rf(a, b) != expected) {
    fail(report, "max-rf-saturation", "Day disagrees on the saturated pair");
  }
  ++report.checks;
  if (bfhrf_rf(a, b, false) != static_cast<double>(expected)) {
    fail(report, "max-rf-saturation",
         "BFHRF disagrees on the saturated pair");
  }
}

void check_vector_codec(std::span<const Tree> trees, util::Rng& rng,
                        const InvariantOptions& opts,
                        InvariantReport& report) {
  report.invariants_run.push_back("vector-codec");
  const auto sampled = sample_indices(trees.size(), opts.samples, rng);

  // Per-tree round trip: encode, decode, re-encode. The re-encoded vector
  // must be the identity (phylo2vec is a bijection on rooted shapes) and
  // the decoded tree must sit at distance zero from the original.
  std::vector<Tree> originals;
  std::vector<Tree> decoded;
  for (const std::size_t idx : sampled) {
    const Tree& t = trees[idx];
    phylo::TreeVector v;
    try {
      v = phylo::tree_to_vector(t);
    } catch (const InvalidArgument&) {
      continue;  // multifurcating / partial coverage: outside codec scope
    }
    Tree back = phylo::vector_to_tree(v, t.taxa());
    back.validate();
    ++report.checks;
    if (phylo::tree_to_vector(back) != v) {
      fail(report, "vector-codec",
           "vector->tree->vector is not the identity for tree " +
               std::to_string(idx) + " (vector " + phylo::format_vector(v) +
               ")");
    }
    ++report.checks;
    if (seq_rf(t, back, opts.include_trivial) != 0) {
      fail(report, "vector-codec",
           "codec round trip moved tree " + std::to_string(idx));
      continue;
    }
    originals.push_back(t);
    decoded.push_back(std::move(back));
  }

  // Matrix metamorphic relation: converting a whole collection through the
  // codec must preserve every pairwise RF value bit-for-bit (entries are
  // integers, so "close" is not good enough).
  if (originals.size() >= 2) {
    const core::AllPairsOptions ap{.threads = 1,
                                   .include_trivial = opts.include_trivial};
    const core::RfMatrix before = core::all_pairs_rf(originals, ap);
    const core::RfMatrix after = core::all_pairs_rf(decoded, ap);
    for (std::size_t i = 0; i < before.size(); ++i) {
      for (std::size_t j = i + 1; j < before.size(); ++j) {
        ++report.checks;
        if (before.at(i, j) != after.at(i, j)) {
          fail(report, "vector-codec",
               "pairwise RF matrix changed across codec conversion at (" +
                   std::to_string(i) + "," + std::to_string(j) + "): " +
                   std::to_string(before.at(i, j)) + " -> " +
                   std::to_string(after.at(i, j)));
        }
      }
    }
  }
}

InvariantReport check_invariants(std::span<const Tree> trees,
                                 const InvariantOptions& opts) {
  InvariantReport report;
  report.seed = opts.seed;
  if (trees.empty()) {
    return report;
  }
  util::Rng rng(opts.seed);
  check_relabeling(trees, rng, opts, report);
  check_rerooting(trees, rng, opts, report);
  check_duplicates(trees, rng, opts, report);
  check_pruning(trees, rng, opts, report);
  check_nni_delta(trees, rng, opts, report);
  check_round_trip(trees, rng, opts, report);
  check_saturation(trees, opts, report);
  check_vector_codec(trees, rng, opts, report);
  return report;
}

}  // namespace bfhrf::qc
