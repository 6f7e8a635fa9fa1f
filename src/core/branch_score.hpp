// Branch-score distance via the frequency-hash pattern (paper §IX: "a
// catalog of RF variations").
//
// The Kuhner–Felsenstein branch-score distance generalizes RF from split
// presence to split length: with l_T(b) the length of the edge inducing
// split b in T (0 if b is absent),
//
//   BS²(T, T') = Σ_b ( l_T(b) − l_T'(b) )²        over all splits b.
//
// Classic RF is the special case l ∈ {0, 1}. The same build/query split the
// paper applies to RF applies here because the squared sum is linear in
// per-split statistics of the reference collection:
//
//   Σ_T BS²(T, T')
//     = Σ_b Σ_T l_T(b)²                            (S2, a build-time total)
//       + Σ_{b'∈B(T')} ( r·l'(b')² − 2·l'(b')·Σ_T l_T(b') )
//
// so the engine keeps, per unique split, its frequency and Σ l_T(b): a
// FrequencyHash numbers the splits (the raw encoding's dense key ids), and
// a Σ-length column is indexed by that id. One global Σ l² completes the
// query. NOTE the linearity is what makes this
// work — the engine therefore reports the mean SQUARED branch score (the
// mean of per-pair square roots does not decompose).
//
// Unweighted trees have all lengths 0 and score 0; the engine refuses to
// build from them (that silence would otherwise look like agreement).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/frequency_hash.hpp"
#include "phylo/bipartition.hpp"
#include "phylo/tree.hpp"

namespace bfhrf::core {

struct BranchScoreOptions {
  std::size_t threads = 1;

  /// Include leaf (trivial) splits. Unlike presence-only RF, external
  /// branch lengths carry real signal, so the default is on — matching the
  /// usual branch-score definition.
  bool include_trivial = true;

  /// Which per-edge value to score. BranchLength gives the classic
  /// Kuhner–Felsenstein distance; Support scores disagreement in bootstrap
  /// or posterior support instead (same math, different signal).
  phylo::SplitValue value = phylo::SplitValue::BranchLength;
};

/// Pairwise squared branch-score distance (test oracle; O(n²/64)).
[[nodiscard]] double branch_score_squared(
    const phylo::Tree& a, const phylo::Tree& b,
    const BranchScoreOptions& opts = {});

class BranchScoreBfhrf {
 public:
  explicit BranchScoreBfhrf(std::size_t n_bits,
                            BranchScoreOptions opts = {});

  /// Accumulate the reference collection's per-split length statistics.
  void build(std::span<const phylo::Tree> reference);

  /// Mean squared branch score of each query tree against R.
  [[nodiscard]] std::vector<double> query(
      std::span<const phylo::Tree> queries) const;

  /// Mean squared branch score of one tree. Thread-safe after build.
  [[nodiscard]] double query_one(const phylo::Tree& tree) const;

  [[nodiscard]] std::size_t unique_splits() const noexcept {
    return splits_.unique_count();
  }
  [[nodiscard]] std::size_t reference_trees() const noexcept {
    return reference_trees_;
  }
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return splits_.memory_bytes() + sum_len_.capacity() * sizeof(double);
  }

 private:
  void add_tree(const phylo::Tree& tree,
                phylo::BipartitionExtractor& extractor);
  [[nodiscard]] double query_one(const phylo::Tree& tree,
                                 phylo::BipartitionExtractor& extractor) const;

  std::size_t n_bits_;
  BranchScoreOptions opts_;
  std::size_t reference_trees_ = 0;
  double sum_len_sq_total_ = 0.0;  ///< S2 = Σ_b Σ_T l_T(b)²
  FrequencyHash splits_;           ///< unique splits, numbered 0..U-1
  std::vector<double> sum_len_;    ///< Σ_T l_T(b), by split id
};

/// Sequential oracle: mean squared branch score by explicit pairwise
/// computation (for tests and the ablation bench).
[[nodiscard]] std::vector<double> sequential_avg_branch_score(
    std::span<const phylo::Tree> queries,
    std::span<const phylo::Tree> reference,
    const BranchScoreOptions& opts = {});

}  // namespace bfhrf::core
