#include "core/all_pairs.hpp"

#include <vector>

#include "core/bit_matrix.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "phylo/bipartition.hpp"
#include "util/error.hpp"

namespace bfhrf::core {
namespace {

const obs::Counter g_ap_trees = obs::counter("core.all_pairs.trees");
const obs::Counter g_ap_pairs = obs::counter("core.all_pairs.pairs");
const obs::Histogram g_ap_seconds = obs::histogram("core.all_pairs.seconds");

}  // namespace

RfMatrix all_pairs_rf(std::span<const phylo::Tree> trees,
                      const AllPairsOptions& opts) {
  if (trees.empty()) {
    throw InvalidArgument("all_pairs_rf: empty collection");
  }
  const obs::TraceSpan span("all_pairs");
  const obs::ScopedTimer timer(g_ap_seconds);
  const auto& taxa = trees.front().taxa();
  for (const auto& t : trees) {
    if (t.taxa() != taxa) {
      throw InvalidArgument("all_pairs_rf: trees must share one TaxonSet");
    }
  }
  const std::size_t r = trees.size();
  const std::size_t threads = parallel::effective_threads(opts.threads);

  // Precompute every tree's sorted bipartition set once (O(n²r/64)).
  const phylo::BipartitionOptions bip_opts{.include_trivial =
                                               opts.include_trivial};
  std::vector<phylo::BipartitionSet> sets(r);
  parallel::parallel_for(
      0, r, threads,
      [&](std::size_t i) {
        sets[i] = phylo::extract_bipartitions(trees[i], bip_opts);
      },
      /*grain=*/8);

  RfMatrix matrix = bit_matrix_rf(sets, opts);
  g_ap_trees.inc(r);
  g_ap_pairs.inc(static_cast<std::uint64_t>(r) * (r - 1) / 2);
  return matrix;
}

}  // namespace bfhrf::core
