// Bipartition extraction and canonical encoding (paper §II-B).
//
// A bipartition of a tree T is the two-way split of T's taxa induced by
// removing one edge. We encode it as a bitmask over the TaxonSet's index
// space, canonicalized to be complement-invariant: the side NOT containing
// the lowest-indexed taxon present in the tree is stored (i.e. the bit of
// that taxon is always 0). This is the Dendropy scheme up to polarity.
//
// Trivial bipartitions (a single leaf vs the rest) are excluded by default,
// so a binary tree on n taxa yields n-3 bipartitions (2n-3 with trivial
// ones included), matching the counts in the paper §IV-A.
//
// BipartitionSet stores a tree's bipartitions in one contiguous arena,
// sorted and deduplicated, enabling O(k·w) merge-based set operations —
// this is the "B(T)" object that every RF engine consumes.
//
// Every front end shares one finish (finish_splits): it takes a tree's
// side masks in emission order and drops, canonicalizes and sorts them.
// Newick text (phylo::NewickSplitExtractor) and a Tree's child links
// (BipartitionExtractor) feed it through one open-mask stack fold
// (SplitFold); vector rows (phylo::VectorBipartitionExtractor) fold their
// decoded parent array and hand it the per-node mask column.
//
// Fingerprints ride along. The frequency store's key fingerprint is
// mix64(L(key)) for a GF(2)-linear L (util::fingerprint, util/hash.hpp),
// so each fold keeps one L word next to each mask: a leaf XORs in its
// taxon's column (util::taxon_column) where it ORs in its bit, and a
// closed group XORs its L into its parent's where it ORs its mask. The
// finish flips a side's L to its complement's with one XOR of L(leaf
// mask), applies mix64, and keeps the result in the set's fingerprint
// column, which follows the keys through the sort and dedup. The engine
// hands that column to the store (core/bfhrf), so no build or query
// hashes a key.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "phylo/tree.hpp"
#include "util/bitset.hpp"

namespace bfhrf::phylo {

/// Which per-edge quantity to attach to each split as its value.
enum class SplitValue {
  None,          ///< presence-only splits (classic RF)
  BranchLength,  ///< the inducing edge's length (branch-score distance)
  Support,       ///< the inducing node's support value (bootstrap etc.)
};

struct BipartitionOptions {
  /// Include the n trivial leaf splits. The paper (and HashRF) exclude them;
  /// they cancel in RF whenever both trees share the same taxa.
  bool include_trivial = false;

  /// Attach a per-split value (BipartitionSet::value). The two half-edges
  /// of a rooted-degree-2 representation merge by summing for lengths and
  /// by max for supports (they describe the same unrooted edge). Used by
  /// the generalized engines (core/branch_score.hpp).
  SplitValue value = SplitValue::None;

  /// Keep the arena sorted + deduplicated (the BipartitionSet contract its
  /// merge-based set operations need). `false` skips the O(k log k)
  /// finalize sort and leaves the arena in traversal order, removing the
  /// one possible duplicate (the two half-edges of a degree-2 root)
  /// structurally instead. Only honoured for value == None on unary-free
  /// trees — anything else falls back to the sorted path. Unsorted sets
  /// must not be used with contains()/intersection/symmetric-difference;
  /// the BFHRF hash paths use this (insertion and lookup need no order).
  bool sorted = true;
};

struct SplitColumn;

/// A tree's bipartitions: sorted, deduplicated, arena-backed bitmasks of a
/// fixed width (the TaxonSet size at extraction time).
class BipartitionSet {
 public:
  BipartitionSet() = default;

  /// `n_bits` is the universe width (TaxonSet size).
  explicit BipartitionSet(std::size_t n_bits)
      : n_bits_(n_bits), words_per_(util::words_for_bits(n_bits)) {}

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t n_bits() const noexcept { return n_bits_; }
  [[nodiscard]] std::size_t words_per_bipartition() const noexcept {
    return words_per_;
  }

  /// Word view of the i-th bipartition (sorted order).
  [[nodiscard]] util::ConstWordSpan operator[](std::size_t i) const noexcept {
    return {arena_.data() + i * words_per_, words_per_};
  }

  /// The whole sorted arena as one contiguous word span (size() keys of
  /// words_per_bipartition() words each) — the zero-copy input to batched
  /// lookups (core::FrequencyHash::frequency_many).
  [[nodiscard]] util::ConstWordSpan arena_view() const noexcept {
    return {arena_.data(), count_ * words_per_};
  }

  /// util::fingerprint of each bipartition, in arena order: the column
  /// the extractors fold (append computes it from the words). The
  /// batched store calls take it beside arena_view().
  [[nodiscard]] std::span<const std::uint64_t> fingerprints()
      const noexcept {
    return {fingerprints_.data(), count_};
  }

  /// Copy the i-th bipartition into an owning bitset.
  [[nodiscard]] util::DynamicBitset bitset(std::size_t i) const {
    return util::DynamicBitset(n_bits_, (*this)[i]);
  }

  /// Membership test by binary search. `words` must have the same width.
  [[nodiscard]] bool contains(util::ConstWordSpan words) const noexcept;

  /// Append a bipartition (unsorted); call `finalize()` once after appends.
  void append(util::ConstWordSpan words);

  /// Append a bipartition with an attached value (e.g. branch length).
  /// A set must be built either entirely with values or entirely without.
  void append(util::ConstWordSpan words, double value);

  /// How duplicate splits' values combine in finalize(): lengths of the
  /// two halves of a subdivided root edge sum; supports take the max (they
  /// annotate the same unrooted edge).
  enum class ValueMerge { Sum, Max };
  void set_value_merge(ValueMerge m) noexcept { value_merge_ = m; }

  /// Reusable sort/dedup buffers for finalize(). Buffers ping-pong with the
  /// set's arena across calls, so repeated finalize()s allocate nothing
  /// once warm.
  struct FinalizeScratch {
    std::vector<std::uint32_t> order;
    std::vector<std::uint64_t> sorted;
    std::vector<std::uint64_t> fingerprints;
    std::vector<double> values;
  };

  /// Sort + deduplicate the arena (duplicate values combine per
  /// ValueMerge). Idempotent. Pass a FinalizeScratch to reuse the sort
  /// buffers across trees (per-worker scratch in the streaming engines).
  void finalize(FinalizeScratch* scratch = nullptr);

  /// The extractors' finish (below) stores canonical splits straight into
  /// the arena: the extraction hot path's append.
  friend void finish_splits(const SplitColumn& column,
                            const BipartitionOptions& opts,
                            BipartitionSet& out, FinalizeScratch& scratch);

  /// Reset to an empty set over a (possibly new) universe width, keeping
  /// the arena capacity for reuse.
  void clear(std::size_t n_bits);

  /// Copy-assign the leaf mask, reusing this set's existing buffer (unlike
  /// set_leaf_mask, which takes ownership of a freshly built mask).
  void assign_leaf_mask(const util::DynamicBitset& mask) { leaf_mask_ = mask; }

  /// True if this set carries per-bipartition values.
  [[nodiscard]] bool has_values() const noexcept { return !values_.empty(); }

  /// Value attached to the i-th bipartition (0.0 for value-less sets).
  [[nodiscard]] double value(std::size_t i) const noexcept {
    return values_.empty() ? 0.0 : values_[i];
  }

  /// Union of all leaves present in the source tree (width n_bits).
  [[nodiscard]] const util::DynamicBitset& leaf_mask() const noexcept {
    return leaf_mask_;
  }
  void set_leaf_mask(util::DynamicBitset mask) {
    leaf_mask_ = std::move(mask);
  }

  /// |A \ B| + |B \ A| over the sorted arenas — the RF numerator.
  [[nodiscard]] static std::size_t symmetric_difference_size(
      const BipartitionSet& a, const BipartitionSet& b);

  /// |A ∩ B| over the sorted arenas.
  [[nodiscard]] static std::size_t intersection_size(const BipartitionSet& a,
                                                     const BipartitionSet& b);

  /// Invoke `fn(ConstWordSpan)` per bipartition in sorted order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < count_; ++i) {
      fn((*this)[i]);
    }
  }

  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return (arena_.capacity() + fingerprints_.capacity()) *
               sizeof(std::uint64_t) +
           values_.capacity() * sizeof(double) + leaf_mask_.memory_bytes();
  }

 private:
  std::size_t n_bits_ = 0;
  std::size_t words_per_ = 0;
  std::size_t count_ = 0;
  bool finalized_ = true;  // empty set is trivially sorted
  ValueMerge value_merge_ = ValueMerge::Sum;
  std::vector<std::uint64_t> arena_;
  std::vector<std::uint64_t> fingerprints_;  // one per bipartition
  std::vector<double> values_;  // empty, or one value per bipartition
  util::DynamicBitset leaf_mask_;
};

inline constexpr std::size_t kNoTwin = ~std::size_t{0};  ///< no twin mask

/// One tree's folded side masks, as a front end hands them to the finish.
struct SplitColumn {
  util::ConstWordSpan sides;  ///< leaf_mask-wide masks, in emission order
  /// util::linear_fingerprint of each side mask, folded with it; empty
  /// makes the finish compute each fingerprint from the canonical words.
  std::span<const std::uint64_t> linear = {};
  const util::DynamicBitset& leaf_mask;  ///< the tree's taxa
  std::size_t leaves = 0;                ///< the tree's leaf count
  /// The mask of a degree-2 root's second child, whose split is the first
  /// child's, or kNoTwin.
  std::size_t twin = kNoTwin;
  bool unary = false;  ///< some group had one child: splits may repeat
  std::span<const double> values = {};  ///< one per mask, if opts.value
};

/// The finish every front end shares. Clears `out` to the leaf mask's
/// width and appends each side mask but the twin, in canonical polarity
/// (the side without the lowest taxon), whose split has at least 2 taxa
/// (1 with include_trivial) on each side, with its fingerprint:
/// mix64(L(side) ^ L(leaf mask)) when the side flips, else mix64(L(side)).
/// Sorts when opts.sorted asks, or when a unary group or the values may
/// have left a split twice. With values the twin is kept, and the sort
/// merges it with its partner (lengths sum, supports take the max).
void finish_splits(const SplitColumn& column, const BipartitionOptions& opts,
                   BipartitionSet& out,
                   BipartitionSet::FinalizeScratch& scratch);

/// The open-mask stack fold: a tree given as open/leaf/close events, the
/// shape of its Newick text, becomes side masks in postorder. Each open
/// group keeps a ⌈n/64⌉-word mask that its leaves and closed child groups
/// OR into, and one linear-fingerprint word that they XOR into. A closed
/// group other than the root is listed, and so is each leaf's singleton
/// with include_trivial. finish() hands the list to finish_splits. (A
/// repeated taxon ORs in twice but would XOR out, so a tree that repeats
/// one leaves its fingerprints to the finish.) NewickSplitExtractor feeds
/// it from the text and BipartitionExtractor from a walk over a Tree's
/// child links, so both emit the same splits in the same order.
///
/// The events run per node on the ingest hot path, so they are inline.
/// Not thread-safe: one fold per worker.
class SplitFold {
 public:
  /// Begin a tree over a universe of `n_bits` taxa.
  void start(std::size_t n_bits, bool include_trivial);

  /// A group opens: '(' in the text, an internal node in a Tree.
  void open() {
    open_.resize(open_.size() + words_, 0);
    open_linear_.push_back(0);
    children_.push_back(0);
  }

  /// A leaf of `taxon` joins the innermost open group. Returns false if
  /// the tree already had that taxon; the leaf is folded either way.
  bool leaf(std::size_t taxon) {
    const std::size_t w = taxon >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (taxon & 63);
    std::uint64_t& seen = leaf_mask_.mutable_words()[w];
    const bool fresh = (seen & bit) == 0;
    seen |= bit;
    repeated_ |= !fresh;
    ++leaves_;
    open_[open_.size() - words_ + w] |= bit;
    const std::uint64_t column = util::taxon_column(taxon);
    open_linear_.back() ^= column;
    if (include_trivial_) {
      closed_.resize(closed_.size() + words_, 0);
      closed_[closed_.size() - words_ + w] = bit;
      closed_linear_.push_back(column);
    }
    child_done(include_trivial_);
    return fresh;
  }

  /// The innermost open group closes.
  void close() {
    const std::uint32_t degree = children_.back();
    children_.pop_back();
    unary_ |= degree == 1;
    const std::size_t top = open_.size() - words_;
    const std::uint64_t linear = open_linear_.back();
    open_linear_.pop_back();
    if (children_.empty()) {
      root_degree_ = degree;  // the root's mask is the leaf mask
    } else {
      std::uint64_t* parent = open_.data() + top - words_;
      const std::uint64_t* group = open_.data() + top;
      for (std::size_t w = 0; w < words_; ++w) {
        parent[w] |= group[w];
      }
      open_linear_.back() ^= linear;
      closed_.insert(closed_.end(), group, group + words_);
      closed_linear_.push_back(linear);
      child_done(true);
    }
    open_.resize(top);
  }

  /// Finish the tree through finish_splits into `out`, with one value per
  /// listed mask when opts.value asks for values.
  void finish(const BipartitionOptions& opts, BipartitionSet& out,
              std::span<const double> values = {});

 private:
  /// A child of the innermost open group completed; `listed` if it took
  /// the last listed mask.
  void child_done(bool listed) {
    if (++children_.back() == 2 && children_.size() == 1) {
      twin_ = listed ? closed_.size() / words_ - 1 : kNoTwin;
    }
  }

  std::size_t words_ = 0;
  bool include_trivial_ = false;
  bool unary_ = false;                   ///< a group closed with one child
  bool repeated_ = false;                ///< a taxon came twice
  std::uint32_t root_degree_ = 0;
  std::size_t leaves_ = 0;
  std::size_t twin_ = kNoTwin;           ///< the root's second child's mask
  std::vector<std::uint64_t> open_;      ///< masks of the open groups
  std::vector<std::uint64_t> open_linear_;  ///< their linear fingerprints
  std::vector<std::uint32_t> children_;  ///< their child counts so far
  std::vector<std::uint64_t> closed_;    ///< listed masks, postorder
  std::vector<std::uint64_t> closed_linear_;  ///< one per listed mask
  util::DynamicBitset leaf_mask_;        ///< taxa seen so far
  BipartitionSet::FinalizeScratch scratch_;
};

/// Extract the canonical bipartition set of `tree`.
/// Cost: O(n^2 / 64) — O(n) edges, each masked over O(n/64) words.
[[nodiscard]] BipartitionSet extract_bipartitions(
    const Tree& tree, const BipartitionOptions& opts = {});

/// Reusable extraction engine. extract_bipartitions() allocates the fold's
/// buffers, sort scratch, and a fresh arena for EVERY tree; a
/// BipartitionExtractor owns all of those and reuses them, so per-tree
/// extraction is allocation-free once warm. This is the hot-loop API the
/// streaming engines thread through their per-worker scratch
/// (core/bfhrf, core/sequential_rf, core/branch_score).
///
/// Tree::walk gives SplitFold the events the tree's Newick text would, so
/// its splits come out in postorder, in the order NewickSplitExtractor
/// gives for that text.
///
/// Not thread-safe: one extractor per worker.
class BipartitionExtractor {
 public:
  /// Extract into the internal set and return a reference to it. The
  /// reference is invalidated by the next extract()/extract_into()/take().
  const BipartitionSet& extract(const Tree& tree,
                                const BipartitionOptions& opts = {});

  /// Extract into `out` (cleared first), reusing `out`'s own capacity as
  /// well as the extractor's scratch.
  void extract_into(const Tree& tree, const BipartitionOptions& opts,
                    BipartitionSet& out);

  /// Move the last extract() result out of the extractor. The internal
  /// arena restarts cold afterwards; use extract_into for bulk storage.
  [[nodiscard]] BipartitionSet take() { return std::move(set_); }

 private:
  BipartitionSet set_;
  SplitFold fold_;
  std::vector<double> values_;  ///< per listed mask, when opts.value asks
};

/// Canonicalize one raw side-mask in place: flip to the side avoiding the
/// lowest taxon of `leaf_mask`. Exposed for the variants framework.
void canonicalize_bipartition(util::DynamicBitset& mask,
                              const util::DynamicBitset& leaf_mask);

/// True if two canonical bipartitions over the same leaf universe are
/// compatible (can coexist in one tree): one side-pair is nested or disjoint.
[[nodiscard]] bool bipartitions_compatible(const util::DynamicBitset& a,
                                           const util::DynamicBitset& b,
                                           const util::DynamicBitset&
                                               leaf_mask);

}  // namespace bfhrf::phylo
