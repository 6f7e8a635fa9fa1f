#include "core/sequential_rf.hpp"

#include <algorithm>

#include "core/day.hpp"
#include "parallel/thread_pool.hpp"
#include "util/error.hpp"

namespace bfhrf::core {
namespace {

/// Max-possible pairwise RF sum for normalization under MaxScaled.
double pair_max(const phylo::BipartitionSet& a,
                const phylo::BipartitionSet& b) {
  return static_cast<double>(a.size() + b.size());
}

}  // namespace

double weighted_symmetric_difference(const phylo::BipartitionSet& a,
                                     const phylo::BipartitionSet& b,
                                     const RfVariant& variant) {
  BFHRF_ASSERT(a.words_per_bipartition() == b.words_per_bipartition());
  const std::size_t n_bits = a.n_bits();
  const auto weight_of = [&](util::ConstWordSpan w) {
    const BipartitionRef ref{w, n_bits, util::popcount_words(w)};
    return variant.keep(ref) ? variant.weight(ref) : 0.0;
  };

  double total = 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const int c = util::compare_words(a[i], b[j]);
    if (c == 0) {
      ++i;
      ++j;
    } else if (c < 0) {
      total += weight_of(a[i++]);
    } else {
      total += weight_of(b[j++]);
    }
  }
  for (; i < a.size(); ++i) {
    total += weight_of(a[i]);
  }
  for (; j < b.size(); ++j) {
    total += weight_of(b[j]);
  }
  return total;
}

namespace {

struct ReferenceSets {
  std::vector<phylo::BipartitionSet> sets;
  std::size_t memory_bytes = 0;
};

ReferenceSets precompute_reference(std::span<const phylo::Tree> reference,
                                   const SequentialRfOptions& opts) {
  ReferenceSets out;
  out.sets.resize(reference.size());
  const phylo::BipartitionOptions bip_opts{.include_trivial =
                                               opts.include_trivial};
  // One extractor for the whole precompute: the sets own their arenas, but
  // the traversal/sort scratch is reused across all r extractions.
  phylo::BipartitionExtractor extractor;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    extractor.extract_into(reference[i], bip_opts, out.sets[i]);
    out.memory_bytes += out.sets[i].memory_bytes();
  }
  return out;
}

/// Average RF of one query tree against precomputed reference sets.
/// `extractor` is the caller's per-worker scratch.
double query_against(const phylo::Tree& query,
                     std::span<const phylo::Tree> reference,
                     const ReferenceSets& ref_sets,
                     const SequentialRfOptions& opts,
                     phylo::BipartitionExtractor& extractor) {
  const auto r = static_cast<double>(ref_sets.sets.size());

  if (opts.engine == PairwiseEngine::Day) {
    if (opts.variant != nullptr) {
      throw InvalidArgument(
          "PairwiseEngine::Day supports classic RF only (no variant)");
    }
    DayTable table(query, opts.include_trivial);
    double sum = 0.0;
    double max_sum = 0.0;
    for (const auto& ref_tree : reference) {
      sum += static_cast<double>(table.rf_against(ref_tree));
      if (opts.norm == RfNorm::MaxScaled) {
        max_sum += static_cast<double>(table.max_rf_against(ref_tree));
      }
    }
    return apply_norm(sum / r, max_sum / r, opts.norm);
  }

  const phylo::BipartitionOptions bip_opts{.include_trivial =
                                               opts.include_trivial};
  const phylo::BipartitionSet& qb = extractor.extract(query, bip_opts);
  double sum = 0.0;
  double max_sum = 0.0;
  if (opts.variant == nullptr) {
    for (const auto& rb : ref_sets.sets) {
      sum += static_cast<double>(
          phylo::BipartitionSet::symmetric_difference_size(qb, rb));
      max_sum += pair_max(qb, rb);
    }
  } else {
    for (const auto& rb : ref_sets.sets) {
      sum += weighted_symmetric_difference(qb, rb, *opts.variant);
      max_sum += pair_max(qb, rb);  // unit-weight cap; see EXPERIMENTS.md
    }
  }
  return apply_norm(sum / r, max_sum / r, opts.norm);
}

}  // namespace

SequentialRfResult sequential_avg_rf(std::span<const phylo::Tree> queries,
                                     std::span<const phylo::Tree> reference,
                                     const SequentialRfOptions& opts) {
  if (reference.empty()) {
    throw InvalidArgument("sequential_avg_rf: empty reference collection");
  }
  const ReferenceSets ref_sets = precompute_reference(reference, opts);
  const std::size_t threads = parallel::effective_threads(opts.threads);

  SequentialRfResult result;
  result.reference_memory_bytes = ref_sets.memory_bytes;
  result.avg_rf.assign(queries.size(), 0.0);
  std::vector<phylo::BipartitionExtractor> extractors(
      std::max<std::size_t>(1, threads));
  parallel::parallel_for_ranked(
      0, queries.size(), threads,
      [&](std::size_t rank, std::size_t i) {
        result.avg_rf[i] = query_against(queries[i], reference, ref_sets,
                                         opts, extractors[rank]);
      },
      /*grain=*/1);
  return result;
}

}  // namespace bfhrf::core
