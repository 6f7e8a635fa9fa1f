#include "core/consensus.hpp"

#include <algorithm>

#include "phylo/bipartition.hpp"
#include "util/error.hpp"

namespace bfhrf::core {
namespace {

struct Candidate {
  util::DynamicBitset mask;
  std::uint32_t freq = 0;
};

/// Canonical masks all exclude the lowest taxon, so two candidates are
/// compatible iff nested or disjoint (the union-is-universe case cannot
/// occur: both complements contain the lowest taxon).
bool compatible(const util::DynamicBitset& a, const util::DynamicBitset& b) {
  return a.is_disjoint_with(b) || a.is_subset_of(b) || b.is_subset_of(a);
}

}  // namespace

phylo::Tree consensus_tree(const BfhIndexView& store, std::size_t r,
                           const phylo::TaxonSetPtr& taxa,
                           const ConsensusOptions& opts) {
  if (r == 0) {
    throw InvalidArgument("consensus_tree: empty collection");
  }
  if (!taxa || taxa->size() < 2) {
    throw InvalidArgument("consensus_tree: need at least 2 taxa");
  }
  const std::size_t n = taxa->size();

  // Gather candidate splits above / below the majority threshold.
  const double cutoff = opts.threshold * static_cast<double>(r);
  std::vector<Candidate> cands;
  store.for_each_key([&](util::ConstWordSpan words, std::uint32_t freq) {
    if (opts.threshold >= 0.5 && static_cast<double>(freq) <= cutoff) {
      return;
    }
    const std::size_t ones = util::popcount_words(words);
    if (ones < 2 || ones > n - 2) {
      return;  // trivial splits add no structure
    }
    cands.push_back({util::DynamicBitset(n, words), freq});
  });

  // Deterministic order: frequency desc, then lexicographic mask.
  std::sort(cands.begin(), cands.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.freq != b.freq) {
                return a.freq > b.freq;
              }
              return util::compare_words(a.mask.words(), b.mask.words()) < 0;
            });

  // Accept mutually compatible splits. For threshold > 0.5 every candidate
  // is compatible by the majority argument; the check is kept as a guard
  // (and does the real work for the greedy threshold <= 0.5 mode).
  std::vector<Candidate> accepted;
  for (auto& c : cands) {
    const bool ok = std::all_of(
        accepted.begin(), accepted.end(),
        [&](const Candidate& a) { return compatible(a.mask, c.mask); });
    if (ok) {
      accepted.push_back(std::move(c));
    }
  }

  // Assemble the laminar family into a tree. Internal "cluster" 0 is the
  // root (the full universe); clusters are inserted largest-first so each
  // one's parent (minimal strict superset) already exists.
  std::sort(accepted.begin(), accepted.end(),
            [](const Candidate& a, const Candidate& b) {
              const std::size_t ca = a.mask.count();
              const std::size_t cb = b.mask.count();
              if (ca != cb) {
                return ca > cb;
              }
              return util::compare_words(a.mask.words(), b.mask.words()) < 0;
            });

  struct Cluster {
    util::DynamicBitset mask;
    std::size_t parent = 0;
    std::uint32_t freq = 0;  ///< 0 for the synthetic root
    std::vector<std::size_t> child_clusters;
    std::vector<phylo::TaxonId> child_taxa;
  };
  std::vector<Cluster> clusters;
  {
    util::DynamicBitset universe(n);
    universe.flip_all();
    clusters.push_back({std::move(universe), 0, 0, {}, {}});
  }
  for (const auto& c : accepted) {
    std::size_t parent = 0;
    std::size_t parent_count = n + 1;
    for (std::size_t i = 0; i < clusters.size(); ++i) {
      if (c.mask.is_subset_of(clusters[i].mask)) {
        const std::size_t cnt = clusters[i].mask.count();
        if (cnt < parent_count) {
          parent = i;
          parent_count = cnt;
        }
      }
    }
    clusters.push_back({c.mask, parent, c.freq, {}, {}});
    clusters[parent].child_clusters.push_back(clusters.size() - 1);
  }

  // Each taxon hangs off the minimal cluster containing it.
  for (std::size_t taxon = 0; taxon < n; ++taxon) {
    std::size_t owner = 0;
    std::size_t owner_count = n + 1;
    for (std::size_t i = 0; i < clusters.size(); ++i) {
      if (clusters[i].mask.test(taxon)) {
        const std::size_t cnt = clusters[i].mask.count();
        if (cnt < owner_count) {
          owner = i;
          owner_count = cnt;
        }
      }
    }
    clusters[owner].child_taxa.push_back(static_cast<phylo::TaxonId>(taxon));
  }

  // Emit as an arena tree (iterative preorder).
  phylo::Tree tree(taxa);
  std::vector<phylo::NodeId> node_of(clusters.size(), phylo::kNoNode);
  node_of[0] = tree.add_root();
  std::vector<std::size_t> stack{0};
  while (!stack.empty()) {
    const std::size_t ci = stack.back();
    stack.pop_back();
    const phylo::NodeId nid = node_of[ci];
    for (const phylo::TaxonId taxon : clusters[ci].child_taxa) {
      tree.add_leaf(nid, taxon);
    }
    for (const std::size_t child : clusters[ci].child_clusters) {
      node_of[child] = tree.add_child(nid);
      if (opts.annotate_support) {
        tree.set_support(node_of[child],
                         100.0 * static_cast<double>(clusters[child].freq) /
                             static_cast<double>(r));
      }
      stack.push_back(child);
    }
  }
  tree.validate();
  return tree;
}

}  // namespace bfhrf::core
