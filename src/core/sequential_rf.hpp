// SequentialRF (paper Alg. 1) — the DS / DSMP baselines.
//
// Precomputes B(T) for every reference tree (the paper's memory-conscious
// layout: R's sets resident, each query tree's set extracted in turn), then
// computes all q·r pairwise symmetric differences and averages per query
// tree. `threads == 1` is DS; `threads > 1` is DSMP (tree-level
// parallelism over Q).
//
// Complexity (Table I): time O(n²qr/64), space O(n²r/64) for the resident
// reference bipartition sets.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/rf.hpp"
#include "core/variants.hpp"
#include "phylo/bipartition.hpp"
#include "phylo/tree.hpp"

namespace bfhrf::core {

/// How a single tree-vs-tree RF is computed inside the double loop.
enum class PairwiseEngine {
  BipartitionSet,  ///< sorted-merge over canonical bitmask sets (the model
                   ///< the paper analyses: O(n²/64) per pair)
  Day,             ///< Day's O(n) cluster-table algorithm (ablation A3);
                   ///< classic unit-weight RF only
};

struct SequentialRfOptions {
  std::size_t threads = 1;  ///< 1 = DS, >1 = DSMP (0 = hardware default)
  PairwiseEngine engine = PairwiseEngine::BipartitionSet;
  const RfVariant* variant = nullptr;  ///< BipartitionSet engine only
  RfNorm norm = RfNorm::None;
  bool include_trivial = false;
};

struct SequentialRfResult {
  std::vector<double> avg_rf;        ///< per query tree, input order
  std::size_t reference_memory_bytes = 0;  ///< resident B(T) storage for R
};

/// Average RF of each tree in Q against the collection R.
[[nodiscard]] SequentialRfResult sequential_avg_rf(
    std::span<const phylo::Tree> queries,
    std::span<const phylo::Tree> reference,
    const SequentialRfOptions& opts = {});

/// Weighted symmetric difference of two sorted bipartition sets under a
/// variant (filter + weight). Exposed for tests.
[[nodiscard]] double weighted_symmetric_difference(
    const phylo::BipartitionSet& a, const phylo::BipartitionSet& b,
    const RfVariant& variant);

}  // namespace bfhrf::core
