// Differential oracle runner (verification layer 1).
//
// The paper's central claim (§III-C) is that BFHRF is an *exact* drop-in
// for tree-versus-tree RF. This module checks that claim mechanically and
// exhaustively: one workload is pushed through every engine and mode in
// the library — sequential BipartitionSet, Day's O(n) algorithm, HashRF,
// the parallel all-pairs matrix (dense and sparse bit-matrix engines),
// and BFHRF over span input and Newick files streamed by record, with raw
// and compressed-key stores across thread counts — and the *full pairwise
// RF matrix* is compared bit-for-bit, not just the average vectors the
// engines report.
//
// The single source of truth is the sequential BipartitionSet matrix
// (sorted-merge symmetric differences, no hashing, no threads). Every
// other engine either produces a matrix directly (its cells must match
// exactly) or produces per-query averages (which must equal the exact row
// means derived from that matrix — integer sums divided by r, so exact
// double equality applies).
//
// BFHRF reports averages, not matrices; the oracle recovers its full
// matrix column-by-column by building a one-tree reference hash per
// column and querying every tree against it, which drives the real build
// and query paths at per-pair granularity.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/rf_matrix.hpp"
#include "phylo/tree.hpp"

namespace bfhrf::qc {

struct OracleOptions {
  /// Thread counts every parallel engine is run at (0 = hardware default).
  std::vector<std::size_t> thread_counts = {1, 2, 0};

  bool include_trivial = false;

  /// Also run the compressed-key store (KeyEncoding::Sparse: lossless
  /// SparseKeyCodec keys).
  bool check_compressed = true;

  /// Also stream both collections from Newick files through
  /// FileTreeSource (the engine's record route) at every thread count.
  bool check_streaming = true;

  /// Also run one size-filtered RfVariant config through DS and BFHRF.
  bool check_variants = true;

  /// Workload seed, carried into every failure message so any divergence
  /// is replayable (`--seed=N` / BFHRF_FUZZ_SEED convention). 0 = unset.
  std::uint64_t seed = 0;
};

/// One bit-for-bit disagreement between an engine and the oracle baseline.
struct Divergence {
  std::string engine;    ///< label of the diverging engine/mode
  std::string baseline;  ///< what it was compared against
  std::size_t i = 0;     ///< matrix row, or query index for average checks
  std::size_t j = 0;     ///< matrix column (0 for average checks)
  double expected = 0.0;
  double actual = 0.0;
  [[nodiscard]] std::string to_string() const;
};

struct OracleReport {
  std::vector<Divergence> divergences;
  std::vector<std::string> engines;   ///< every engine/mode label that ran
  std::size_t cells_checked = 0;      ///< total matrix cells + avg entries
  std::size_t trees = 0;              ///< combined collection size
  std::uint64_t seed = 0;             ///< echoed from OracleOptions

  [[nodiscard]] bool ok() const noexcept { return divergences.empty(); }

  /// Human-readable outcome; on failure lists the first divergences and
  /// the seed replay hint.
  [[nodiscard]] std::string summary() const;
};

/// Record every mismatching cell of `actual` against `expected` (first
/// `limit` mismatches). Exposed so the comparison machinery itself is unit
/// testable; cross_check() uses it internally.
void compare_matrices(const std::string& engine, const std::string& baseline,
                      const core::RfMatrix& expected,
                      const core::RfMatrix& actual, OracleReport& report,
                      std::size_t limit = 16);

/// Differential cross-check of one workload.
///
/// `reference` and `queries` mirror the paper's Q-versus-R setting; pass an
/// empty `queries` span for the self-comparison case (Q is R). The full
/// matrix is computed over the combined collection R ∪ Q; average-vector
/// engines run on the (Q, R) split and are checked against exact row means
/// of the oracle matrix. All trees must share one TaxonSet.
[[nodiscard]] OracleReport cross_check(std::span<const phylo::Tree> reference,
                                       std::span<const phylo::Tree> queries,
                                       const OracleOptions& opts = {});

/// Matrix-only cross-check of one collection (the shrinker's predicate:
/// cheaper than the full run, still covers every engine family).
[[nodiscard]] OracleReport cross_check_matrix(
    std::span<const phylo::Tree> trees, const OracleOptions& opts = {});

}  // namespace bfhrf::qc
