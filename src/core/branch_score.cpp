#include "core/branch_score.hpp"

#include <algorithm>

#include "parallel/parallel_for.hpp"
#include "util/error.hpp"

namespace bfhrf::core {
namespace {

phylo::BipartitionSet lengths_of(const phylo::Tree& tree,
                                 const BranchScoreOptions& opts) {
  const phylo::BipartitionOptions bip_opts{
      .include_trivial = opts.include_trivial, .value = opts.value};
  return phylo::extract_bipartitions(tree, bip_opts);
}

bool tree_has_values(const phylo::Tree& tree, phylo::SplitValue value) {
  for (phylo::NodeId id = 0; id < static_cast<phylo::NodeId>(tree.num_nodes());
       ++id) {
    if (value == phylo::SplitValue::BranchLength ? tree.node(id).has_length
                                                 : tree.node(id).has_support) {
      return true;
    }
  }
  return false;
}

}  // namespace

double branch_score_squared(const phylo::Tree& a, const phylo::Tree& b,
                            const BranchScoreOptions& opts) {
  if (a.taxa() != b.taxa()) {
    throw InvalidArgument("branch_score: trees must share one TaxonSet");
  }
  const auto ba = lengths_of(a, opts);
  const auto bb = lengths_of(b, opts);

  double total = 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  const auto sq = [](double x) { return x * x; };
  while (i < ba.size() && j < bb.size()) {
    const int c = util::compare_words(ba[i], bb[j]);
    if (c == 0) {
      total += sq(ba.value(i) - bb.value(j));
      ++i;
      ++j;
    } else if (c < 0) {
      total += sq(ba.value(i));
      ++i;
    } else {
      total += sq(bb.value(j));
      ++j;
    }
  }
  for (; i < ba.size(); ++i) {
    total += sq(ba.value(i));
  }
  for (; j < bb.size(); ++j) {
    total += sq(bb.value(j));
  }
  return total;
}

BranchScoreBfhrf::BranchScoreBfhrf(std::size_t n_bits,
                                   BranchScoreOptions opts)
    : n_bits_(n_bits), opts_(opts), splits_(n_bits) {
  if (n_bits_ == 0) {
    throw InvalidArgument("BranchScoreBfhrf: empty taxon universe");
  }
  opts_.threads = parallel::effective_threads(opts_.threads);
}

void BranchScoreBfhrf::add_tree(const phylo::Tree& tree,
                                phylo::BipartitionExtractor& extractor) {
  if (!tree.taxa() || tree.taxa()->size() != n_bits_) {
    throw InvalidArgument("BranchScoreBfhrf: taxon universe mismatch");
  }
  if (!tree_has_values(tree, opts_.value)) {
    throw InvalidArgument(
        "BranchScoreBfhrf: tree carries none of the requested per-edge "
        "values; the score would be identically zero");
  }
  const phylo::BipartitionOptions bip_opts{
      .include_trivial = opts_.include_trivial, .value = opts_.value};
  const phylo::BipartitionSet& bips = extractor.extract(tree, bip_opts);
  for (std::size_t i = 0; i < bips.size(); ++i) {
    const double length = bips.value(i);
    // Raw key ids are dense and assigned in first-insertion order, so a
    // new split's id is the column's next row.
    const std::uint32_t id =
        splits_.add(bips[i], bips.fingerprints()[i], 1, 1.0);
    if (id == sum_len_.size()) {
      sum_len_.push_back(0.0);
    }
    sum_len_[id] += length;
    sum_len_sq_total_ += length * length;
  }
}

void BranchScoreBfhrf::build(std::span<const phylo::Tree> reference) {
  // The length-stats hash is small; a sequential build keeps it simple and
  // exact (parallel extraction would dominate only for huge r, where the
  // classic Bfhrf path is the bottleneck being studied anyway). One
  // extractor reuses the traversal/arena scratch across all r trees.
  phylo::BipartitionExtractor extractor;
  for (const auto& t : reference) {
    add_tree(t, extractor);
  }
  reference_trees_ += reference.size();
}

double BranchScoreBfhrf::query_one(
    const phylo::Tree& tree, phylo::BipartitionExtractor& extractor) const {
  if (reference_trees_ == 0) {
    throw InvalidArgument("BranchScoreBfhrf::query before build");
  }
  if (!tree.taxa() || tree.taxa()->size() != n_bits_) {
    throw InvalidArgument("BranchScoreBfhrf: taxon universe mismatch");
  }
  const auto r = static_cast<double>(reference_trees_);
  const phylo::BipartitionOptions bip_opts{
      .include_trivial = opts_.include_trivial, .value = opts_.value};
  const phylo::BipartitionSet& bips = extractor.extract(tree, bip_opts);

  // Σ_T BS²(T, T') = S2 + Σ_{b'} ( r·l'² − 2·l'·sumlen(b') ).
  double total = sum_len_sq_total_;
  for (std::size_t i = 0; i < bips.size(); ++i) {
    const double l = bips.value(i);
    const std::uint32_t id =
        splits_.key_index_of(bips[i], bips.fingerprints()[i]);
    const double sum_len =
        id == FrequencyHash::kNoKeyIndex ? 0.0 : sum_len_[id];
    total += r * l * l - 2.0 * l * sum_len;
  }
  return total / r;
}

double BranchScoreBfhrf::query_one(const phylo::Tree& tree) const {
  phylo::BipartitionExtractor extractor;
  return query_one(tree, extractor);
}

std::vector<double> BranchScoreBfhrf::query(
    std::span<const phylo::Tree> queries) const {
  const std::size_t threads = opts_.threads;
  std::vector<double> out(queries.size(), 0.0);
  std::vector<phylo::BipartitionExtractor> extractors(
      std::max<std::size_t>(1, threads));
  parallel::parallel_for_ranked(
      0, queries.size(), threads, [&](std::size_t rank, std::size_t i) {
        out[i] = query_one(queries[i], extractors[rank]);
      });
  return out;
}

std::vector<double> sequential_avg_branch_score(
    std::span<const phylo::Tree> queries,
    std::span<const phylo::Tree> reference,
    const BranchScoreOptions& opts) {
  if (reference.empty()) {
    throw InvalidArgument("sequential_avg_branch_score: empty reference");
  }
  std::vector<double> out;
  out.reserve(queries.size());
  for (const auto& q : queries) {
    double sum = 0.0;
    for (const auto& ref : reference) {
      sum += branch_score_squared(q, ref, opts);
    }
    out.push_back(sum / static_cast<double>(reference.size()));
  }
  return out;
}

}  // namespace bfhrf::core
