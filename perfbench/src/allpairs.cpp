// allpairs_avian: the exact r×r RF matrix of an avian-like collection by
// core::bit_matrix_rf (engine Auto), which includes the universe encoding.
// Set-up reads the Newick file and extracts every tree's sorted set.
#include <cstdio>

#include "core/bit_matrix.hpp"
#include "core/day.hpp"
#include "phylo/newick.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = bfhrf::core;
namespace phylo = bfhrf::phylo;

namespace {

/// Matrix cells checked against core::day_rf every run.
constexpr std::size_t kDaySamples = 400;

std::uint64_t matrix_checksum(const core::RfMatrix& m) {
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    for (std::size_t j = i + 1; j < m.size(); ++j) {
      h = h * 0x100000001b3ULL + m.at(i, j);
    }
  }
  return h;
}

}  // namespace

void run_allpairs(const RunConfig& cfg, Result& res) {
  const CorpusFile file{cfg.data_dir + "/trees.nwk", false};
  const Span workload_span(cfg.workload);

  std::vector<phylo::Tree> trees;
  std::vector<phylo::BipartitionSet> sets;
  const std::vector<double> setup = repeat_setup([&] {
    trees.clear();  // one collection alive at a time
    sets.clear();
    const Span span("phylo.bipartition.extract_collection");
    return time_s([&] {
      auto taxa = std::make_shared<phylo::TaxonSet>();
      trees = phylo::read_newick_file(file.path, taxa);
      sets.assign(trees.size(), phylo::BipartitionSet{});
      phylo::BipartitionExtractor ex;
      for (std::size_t i = 0; i < trees.size(); ++i) {
        ex.extract_into(trees[i], {}, sets[i]);
      }
    });
  });

  core::AllPairsOptions opts;
  opts.threads = cfg.threads;
  const double pairs = static_cast<double>(sets.size()) *
                       static_cast<double>(sets.size() - 1) / 2.0;
  std::size_t matrices = 0;
  std::uint64_t first = 0;
  core::UniverseStats universe;
  const Window window = run_window(cfg, [&] {
    core::RfMatrix m;
    const double s = time_s([&] {
      const Span span("core.bit_matrix", workload_span.id());
      m = core::bit_matrix_rf(sets, opts, &universe);
    });
    const std::uint64_t sum = matrix_checksum(m);
    if (++matrices == 1) {
      first = sum;
      // Sampled cells against Day's O(n) algorithm, which shares no code
      // with the bit-matrix kernels.
      bfhrf::util::Rng rng(bfhrf::util::mix64(cfg.seed ^ 0xDA7));
      for (std::size_t k = 0; k < kDaySamples; ++k) {
        const std::size_t i = rng.below(trees.size());
        const std::size_t j = (i + 1 + rng.below(trees.size() - 1)) %
                              trees.size();
        std::size_t want = core::day_rf(trees[i], trees[j]);
        if (cfg.corrupt && k == 0) {
          ++want;
        }
        char what[128];
        std::snprintf(what, sizeof what, "RF(%zu,%zu): matrix %u != day_rf %zu",
                      i, j, m.at(i, j), want);
        res.check(m.at(i, j) == want, what);
      }
    } else {
      res.check(sum == first, "matrix differs from the first matrix");
    }
    return pairs / s;
  });
  const std::vector<double>& rates = window.rates;
  std::printf("# checksum %016llx\n", static_cast<unsigned long long>(first));

  res.metric("setup_s", median(setup), "s");
  res.metric("ops_per_s", median(rates), "1/s");
  std::printf(
      "# %s: pairs_per_s %.4g over %zu matrices of %zu trees (universe %zu, "
      "density %.4f)\n",
      cfg.workload.c_str(), median(rates), matrices, sets.size(),
      universe.universe_width, universe.density());
  if (cfg.trace) {
    std::vector<ScalingRow> scaling;
    profile_layers(file, file, cfg, ProfileScope{.matrix = false}, res,
                   scaling);
    profile_matrix(sets, cfg, pairs / median(rates), res, scaling);
    res.metric("trace.overhead_frac",
               1.0 - median(window.traced_rates) / median(rates), "ratio");
    print_scaling(scaling);
  }
}

}  // namespace perfbench
