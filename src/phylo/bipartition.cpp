#include "phylo/bipartition.hpp"

#include <algorithm>
#include <cstring>

namespace bfhrf::phylo {

bool BipartitionSet::contains(util::ConstWordSpan words) const noexcept {
  std::size_t lo = 0;
  std::size_t hi = count_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const int c = util::compare_words((*this)[mid], words);
    if (c == 0) {
      return true;
    }
    if (c < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return false;
}

void BipartitionSet::append(util::ConstWordSpan words) {
  BFHRF_ASSERT(words.size() == words_per_);
  BFHRF_ASSERT(values_.empty());  // value mode is all-or-nothing
  arena_.insert(arena_.end(), words.begin(), words.end());
  fingerprints_.push_back(util::fingerprint(words));
  ++count_;
  finalized_ = false;
}

void BipartitionSet::append(util::ConstWordSpan words, double value) {
  BFHRF_ASSERT(words.size() == words_per_);
  BFHRF_ASSERT(values_.size() == count_);  // value mode is all-or-nothing
  arena_.insert(arena_.end(), words.begin(), words.end());
  fingerprints_.push_back(util::fingerprint(words));
  values_.push_back(value);
  ++count_;
  finalized_ = false;
}

void BipartitionSet::finalize(FinalizeScratch* scratch) {
  if (finalized_ || count_ <= 1) {
    finalized_ = true;
    return;
  }
  FinalizeScratch local;
  FinalizeScratch& s = scratch != nullptr ? *scratch : local;

  // Sort indices, then rebuild the arena in sorted, deduplicated order.
  std::vector<std::uint32_t>& order = s.order;
  order.resize(count_);
  for (std::uint32_t i = 0; i < count_; ++i) {
    order[i] = i;
  }
  const auto view = [this](std::uint32_t i) { return (*this)[i]; };
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return util::compare_words(view(a), view(b)) < 0;
  });

  const bool with_values = !values_.empty();
  std::vector<std::uint64_t>& sorted = s.sorted;
  sorted.clear();
  sorted.reserve(arena_.size());
  std::vector<std::uint64_t>& sorted_fps = s.fingerprints;
  sorted_fps.clear();
  sorted_fps.reserve(count_);
  std::vector<double>& sorted_values = s.values;
  sorted_values.clear();
  if (with_values) {
    sorted_values.reserve(values_.size());
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto w = view(order[i]);
    if (kept > 0) {
      const util::ConstWordSpan prev{sorted.data() + (kept - 1) * words_per_,
                                     words_per_};
      if (util::equal_words(prev, w)) {
        if (with_values) {
          // The two halves of a subdivided root edge describe one unrooted
          // edge: lengths sum back together, supports keep the max.
          if (value_merge_ == ValueMerge::Sum) {
            sorted_values[kept - 1] += values_[order[i]];
          } else {
            sorted_values[kept - 1] =
                std::max(sorted_values[kept - 1], values_[order[i]]);
          }
        }
        continue;
      }
    }
    sorted.insert(sorted.end(), w.begin(), w.end());
    sorted_fps.push_back(fingerprints_[order[i]]);
    if (with_values) {
      sorted_values.push_back(values_[order[i]]);
    }
    ++kept;
  }
  // Swap rather than move: the displaced arena becomes next call's sort
  // buffer, so a reused scratch keeps both allocations warm.
  std::swap(arena_, sorted);
  std::swap(fingerprints_, sorted_fps);
  std::swap(values_, sorted_values);
  if (!with_values) {
    values_.clear();
  }
  count_ = kept;
  finalized_ = true;
}

void BipartitionSet::clear(std::size_t n_bits) {
  n_bits_ = n_bits;
  words_per_ = util::words_for_bits(n_bits);
  count_ = 0;
  finalized_ = true;
  value_merge_ = ValueMerge::Sum;
  arena_.clear();
  fingerprints_.clear();
  values_.clear();
  // leaf_mask_ is left untouched; extraction overwrites it.
}

std::size_t BipartitionSet::intersection_size(const BipartitionSet& a,
                                              const BipartitionSet& b) {
  BFHRF_ASSERT(a.words_per_ == b.words_per_);
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t common = 0;
  while (i < a.size() && j < b.size()) {
    const int c = util::compare_words(a[i], b[j]);
    if (c == 0) {
      ++common;
      ++i;
      ++j;
    } else if (c < 0) {
      ++i;
    } else {
      ++j;
    }
  }
  return common;
}

std::size_t BipartitionSet::symmetric_difference_size(
    const BipartitionSet& a, const BipartitionSet& b) {
  const std::size_t common = intersection_size(a, b);
  return (a.size() - common) + (b.size() - common);
}

void canonicalize_bipartition(util::DynamicBitset& mask,
                              const util::DynamicBitset& leaf_mask) {
  const std::size_t lowest = leaf_mask.find_first();
  BFHRF_ASSERT(lowest < leaf_mask.size());
  if (mask.test(lowest)) {
    mask ^= leaf_mask;  // complement within the tree's own leaf universe
  }
}

BipartitionSet extract_bipartitions(const Tree& tree,
                                    const BipartitionOptions& opts) {
  BipartitionExtractor extractor;
  (void)extractor.extract(tree, opts);
  return extractor.take();
}

const BipartitionSet& BipartitionExtractor::extract(
    const Tree& tree, const BipartitionOptions& opts) {
  extract_into(tree, opts, set_);
  return set_;
}

void BipartitionExtractor::extract_into(const Tree& tree,
                                        const BipartitionOptions& opts,
                                        BipartitionSet& out) {
  if (tree.empty() || !tree.taxa()) {
    throw InvalidArgument("extract_bipartitions: empty tree or no taxa");
  }
  fold_.start(tree.taxa()->size(), opts.include_trivial);
  values_.clear();
  // The value of the split that a listed node's edge induces.
  const auto list_value = [&](NodeId id) {
    if (opts.value != SplitValue::None) {
      const Tree::Node& nd = tree.node(id);
      values_.push_back(opts.value == SplitValue::BranchLength ? nd.length
                                                               : nd.support);
    }
  };
  // The walk gives the fold the events the tree's Newick text would. A
  // one-leaf tree is folded as a group around its leaf, whose split is
  // trivial both ways.
  const NodeId root = tree.root();
  const bool lone_leaf = tree.is_leaf(root);
  if (lone_leaf) {
    fold_.open();
  }
  tree.walk([&](NodeId) { fold_.open(); },
            [&](NodeId id) {
              fold_.leaf(static_cast<std::size_t>(tree.node(id).taxon));
              if (opts.include_trivial) {
                list_value(id);
              }
            },
            [&](NodeId id) {
              fold_.close();
              if (id != root) {
                list_value(id);
              }
            });
  if (lone_leaf) {
    fold_.close();
  }
  fold_.finish(opts, out, values_);
}

void SplitFold::start(std::size_t n_bits, bool include_trivial) {
  words_ = util::words_for_bits(n_bits);
  include_trivial_ = include_trivial;
  unary_ = false;
  repeated_ = false;
  root_degree_ = 0;
  leaves_ = 0;
  twin_ = kNoTwin;
  open_.clear();
  open_linear_.clear();
  children_.clear();
  closed_.clear();
  closed_linear_.clear();
  if (leaf_mask_.size() != n_bits) {
    leaf_mask_ = util::DynamicBitset(n_bits);
  } else {
    leaf_mask_.clear();
  }
}

void SplitFold::finish(const BipartitionOptions& opts, BipartitionSet& out,
                       std::span<const double> values) {
  // A repeated taxon XORed its column out of the groups it reached twice.
  finish_splits({.sides = closed_,
                 .linear = repeated_ ? std::span<const std::uint64_t>{}
                                     : std::span<const std::uint64_t>(
                                           closed_linear_),
                 .leaf_mask = leaf_mask_,
                 .leaves = leaves_,
                 .twin = root_degree_ == 2 ? twin_ : kNoTwin,
                 .unary = unary_,
                 .values = values},
                opts, out, scratch_);
}

void finish_splits(const SplitColumn& column, const BipartitionOptions& opts,
                   BipartitionSet& out,
                   BipartitionSet::FinalizeScratch& scratch) {
  const util::DynamicBitset& leaf_mask = column.leaf_mask;
  const std::size_t words = leaf_mask.num_words();
  const bool with_values = opts.value != SplitValue::None;
  BFHRF_ASSERT(!with_values ||
               column.values.size() * words == column.sides.size());
  const bool folded = !column.linear.empty();
  BFHRF_ASSERT(!folded ||
               column.linear.size() * words == column.sides.size());
  out.clear(leaf_mask.size());
  if (opts.value == SplitValue::Support) {
    out.set_value_merge(BipartitionSet::ValueMerge::Max);
  }
  const std::size_t twin = with_values ? kNoTwin : column.twin;
  const std::size_t lowest = leaf_mask.find_first();
  const std::size_t min_side = opts.include_trivial ? 1 : 2;
  const util::ConstWordSpan lm = leaf_mask.words();
  // L(side ^ leaf mask) = L(side) ^ L(leaf mask): the flip's one XOR.
  const std::uint64_t flip_linear = folded ? util::linear_fingerprint(lm) : 0;
  for (std::size_t i = 0; i * words < column.sides.size(); ++i) {
    if (i == twin) {
      continue;
    }
    const util::ConstWordSpan side = column.sides.subspan(i * words, words);
    const std::size_t ones = util::popcount_words(side);
    // A side of size < min_side, or its complement, is trivial/degenerate.
    if (ones < min_side || ones > column.leaves - min_side) {
      continue;
    }
    // Canonical polarity: store the side NOT containing the lowest taxon.
    // The flip (complement within the leaf universe) is fused into the
    // arena copy as a branchless masked-xor store (no scratch bitset).
    const bool flip = ((side[lowest >> 6] >> (lowest & 63)) & 1) != 0;
    const std::size_t offset = out.arena_.size();
    out.arena_.resize(offset + words);
    util::store_canonical(out.arena_.data() + offset, side.data(), lm.data(),
                          flip, words);
    out.fingerprints_.push_back(
        folded ? util::fingerprint_of_linear(column.linear[i] ^
                                             (flip ? flip_linear : 0))
               : util::fingerprint({out.arena_.data() + offset, words}));
    if (with_values) {
      out.values_.push_back(column.values[i]);
    }
    ++out.count_;
  }
  out.finalized_ = out.count_ == 0;
  out.assign_leaf_mask(leaf_mask);
  if (opts.sorted || column.unary || with_values) {
    // Sorts and removes the repeats, merging their values.
    out.finalize(&scratch);
  }
}

bool bipartitions_compatible(const util::DynamicBitset& a,
                             const util::DynamicBitset& b,
                             const util::DynamicBitset& leaf_mask) {
  if (a.size() != b.size() || a.size() != leaf_mask.size()) {
    throw InvalidArgument("bipartitions_compatible: size mismatch");
  }
  // Sides A/~A and B/~B (complements within leaf_mask) are compatible iff
  // at least one of the four pairwise intersections is empty. The fused
  // kernels test each case without materializing a combined bitset.
  const util::ConstWordSpan wa = a.words();
  const util::ConstWordSpan wb = b.words();
  if (!util::any_and(wa, wb) ||        // A ∩ B = ∅
      !util::any_andnot(wa, wb) ||     // A ⊆ B
      !util::any_andnot(wb, wa)) {     // B ⊆ A
    return true;
  }
  // Remaining case: A ∪ B == universe (their complements are disjoint).
  // A and B are subsets of the universe, so comparing popcounts suffices.
  return util::popcount_or(wa, wb) == leaf_mask.count();
}

}  // namespace bfhrf::phylo
