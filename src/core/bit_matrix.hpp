// Bit-matrix all-pairs RF engines: dense-universe popcount rows and a
// density-adaptive sparse id-list path.
//
// The succinct-representations direction (PAPERS.md, arXiv 2312.14029)
// applied to the all-pairs product: instead of merging two sorted arenas
// of n-bit bipartition keys per pair (a merge walk, O(d·n/64) per pair),
// number the collection's unique bipartitions once — a single
// FrequencyHash build assigns each its dense arena index — and re-encode
// every tree against that id space. A pair comparison then touches ids,
// not keys:
//
//   RF(i,j) = d_i + d_j − 2·|ids_i ∩ ids_j|
//
//  * DENSE rows: tree i is a bit-row of U bits; the intersection size is
//    one fused popcount_and sweep (util/bitset, AVX2/SWAR dispatched) —
//    O(U/64) per pair independent of tree size, unbeatable when the
//    universe is narrow (birthday-heavy collections).
//  * SPARSE rows: tree i is a sorted uint32 id list; the intersection is
//    a merge/gallop/SSE2 block-compare (util/sorted_ids) — O(d_i + d_j)
//    per pair, the right shape when U ≈ r·d and dense rows would be
//    mostly-zero word scans.
//
// Scheduling: the upper triangle is cut into square blocks of tile rows
// pushed through a BoundedQueue drained by a ThreadPool — work-stealing in
// effect, since any lane takes the next tile regardless of the static
// owner the tile was dealt to. A tile's row band is sized to stay L2-
// resident, so the column stream is the only DRAM traffic: at least 8
// and at most 256 rows, fewer when the triangle would otherwise yield too
// few tiles to balance the lanes.
//
// Everything here is exact: ids are collision-free by FrequencyHash's
// full-key verification, so the engines are bit-identical to a sorted-set
// merge walk (the qc oracle enforces this across thread counts).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/all_pairs.hpp"
#include "core/rf_matrix.hpp"
#include "phylo/bipartition.hpp"

namespace bfhrf::core {

/// Measured shape of a collection's bipartition universe (obs gauges and
/// the Auto engine pick).
struct UniverseStats {
  std::size_t trees = 0;             ///< r
  std::size_t universe_width = 0;    ///< U = distinct bipartitions
  std::uint64_t total_memberships = 0;  ///< Σ d_i (row fills)

  /// Mean fraction of the universe each tree's row occupies, in [0, 1].
  [[nodiscard]] double density() const noexcept {
    const double cells = static_cast<double>(trees) *
                         static_cast<double>(universe_width);
    return cells > 0.0 ? static_cast<double>(total_memberships) / cells : 0.0;
  }
};

/// The Auto decision, exposed pure so the density-threshold boundary is
/// unit-testable without building a collection: BitDense at or above
/// kDefaultDensityThreshold, BitSparse below it. An explicit BitDense or
/// BitSparse in opts is returned unchanged.
[[nodiscard]] AllPairsEngine pick_bit_engine(
    const UniverseStats& stats, const AllPairsOptions& opts) noexcept;

/// All-pairs RF over pre-extracted, sorted bipartition sets (one per
/// tree, all the same n_bits) using the bit-matrix engine `opts.engine`
/// picks. When `stats_out` is non-null the measured universe shape is
/// written there.
[[nodiscard]] RfMatrix bit_matrix_rf(
    std::span<const phylo::BipartitionSet> sets, const AllPairsOptions& opts,
    UniverseStats* stats_out = nullptr);

}  // namespace bfhrf::core
