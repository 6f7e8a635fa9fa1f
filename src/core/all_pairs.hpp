// Exact all-versus-all RF matrix, parallel.
//
// The paper positions the matrix as the product "useful for clustering
// techniques" (§VIII) but its comparator, HashRF, computes it sequentially
// and collision-prone. This module is the modern replacement: collision-
// free and parallel, with two engines behind one entry point, the
// bit-matrix engines of core/bit_matrix:
//
//  * BitDense / BitSparse — one FrequencyHash pass assigns every unique
//    bipartition a dense universe id, each tree becomes a bit-row (or
//    sorted id list) over that universe, and RF(i,j) = d_i + d_j −
//    2·|row_i ∩ row_j| runs on the fused popcount kernels (util/bitset) or
//    the sorted-id intersection kernels (util/sorted_ids), scheduled as
//    cache-sized tiles that parallel_for lanes claim one at a time.
//
// Auto (the default) measures the collection's universe density and picks
// dense rows for birthday-heavy collections (shared bipartitions, narrow
// universe) and sparse id lists for unique-heavy ones (wide universe,
// near-empty rows). The qc oracle checks both engines bit-for-bit against
// its own sorted-set merge walk, which shares no id space, hash or kernel
// with them. The O(r²) time/memory is inherent to the matrix itself — use
// Bfhrf when only averages are needed.
#pragma once

#include <cstddef>
#include <span>

#include "core/rf.hpp"
#include "core/rf_matrix.hpp"
#include "phylo/tree.hpp"

namespace bfhrf::core {

struct UniverseStats;  // core/bit_matrix.hpp

/// Which all-pairs engine to run. Auto measures universe density and
/// picks BitDense or BitSparse.
enum class AllPairsEngine : std::uint8_t {
  Auto,
  BitDense,
  BitSparse,
};

/// Universe density (mean row fill U-normalized) at or above which Auto
/// picks BitDense. Below it rows are sparse enough that sorted id lists
/// beat scanning mostly-zero popcount words. See DESIGN.md §7 for the
/// cost model behind the value.
inline constexpr double kDefaultDensityThreshold = 1.0 / 256.0;

struct AllPairsOptions {
  /// Worker threads (1 = sequential; 0 = hardware default).
  std::size_t threads = 1;
  bool include_trivial = false;

  /// Engine selection (Auto = density-measured dense/sparse pick).
  AllPairsEngine engine = AllPairsEngine::Auto;
};

/// RF distance matrix of one collection (exact; parallel over tiles).
/// When `stats_out` is non-null the collection's measured universe shape
/// (the input to the Auto pick) is written there.
[[nodiscard]] RfMatrix all_pairs_rf(std::span<const phylo::Tree> trees,
                                    const AllPairsOptions& opts = {},
                                    UniverseStats* stats_out = nullptr);

}  // namespace bfhrf::core
