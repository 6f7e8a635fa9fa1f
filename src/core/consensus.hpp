// Consensus trees straight out of a frequency hash (paper §IX: "other
// applications of directly using a BFH").
//
// BFH_R already holds exactly what consensus methods need — bipartition
// frequencies over the collection — so majority-rule and greedy consensus
// fall out without touching the trees again:
//
//  * majority-rule (threshold t > 0.5): keep splits with freq > t·r; such
//    splits are pairwise compatible by a counting argument, so they always
//    assemble into a tree.
//  * greedy / extended majority (t <= 0.5): scan splits by decreasing
//    frequency, keeping each one compatible with everything kept so far.
//
// It reads the engine's one read-only store (BfhIndexView,
// core/sharded_hash.hpp), so a consensus comes equally from a fresh build
// at any thread count or from a loaded index file.
#pragma once

#include <cstddef>

#include "core/sharded_hash.hpp"
#include "phylo/taxon_set.hpp"
#include "phylo/tree.hpp"

namespace bfhrf::core {

struct ConsensusOptions {
  /// Frequency threshold as a fraction of r. 0.5 = majority rule.
  /// Values below 0.5 trigger the greedy compatibility scan.
  double threshold = 0.5;

  /// Annotate each consensus clade with its percentage frequency in the
  /// collection as the node's support value (written by write_newick with
  /// write_support = true).
  bool annotate_support = true;
};

/// Build the consensus tree of the collection summarized by `store`
/// (Bfhrf::store(), built or loaded). `r` is the number of trees that went
/// into it; `taxa` the shared namespace. The result is an unrooted tree
/// containing every taxon, with one internal edge per accepted bipartition
/// (multifurcating wherever the accepted splits do not resolve the
/// topology).
[[nodiscard]] phylo::Tree consensus_tree(const BfhIndexView& store,
                                         std::size_t r,
                                         const phylo::TaxonSetPtr& taxa,
                                         const ConsensusOptions& opts = {});

}  // namespace bfhrf::core
