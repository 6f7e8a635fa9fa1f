// Seeded corpus generation for every workload. Generation is harness work:
// it runs in its own process before the measured run, so neither its time
// nor its memory lands in any metric.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench {

/// Corpus sizes per workload (smoke = tiny, for the self-tests).
struct Sizes {
  // avgrf_newick: insect-like, n = 144, 10 moves, unweighted
  std::size_t newick_ref = 0;
  std::size_t newick_query = 0;
  // avgrf_p2v_wide: n = 1000, 40 code resamplings per tree
  std::size_t wide_taxa = 0;
  std::size_t wide_moves = 0;
  std::size_t wide_ref = 0;
  std::size_t wide_query = 0;
  // allpairs_avian: avian-like, n = 48, with half the preset's moves so the
  // universe density stays well above the dense/sparse crossover (1/256)
  // on every seed
  std::size_t avian_trees = 0;
  std::size_t avian_moves = 0;
  // serve_swap: two insect-like references plus a query pool
  std::size_t serve_ref = 0;
  std::size_t serve_query = 0;  ///< per reference family
};

[[nodiscard]] Sizes sizes(bool smoke);

/// Write the workload's corpus files into `dir` (which must exist). The
/// same (workload, seed, smoke) always produces byte-identical files.
void generate(const std::string& workload, std::uint64_t seed,
              const std::string& dir, bool smoke);

}  // namespace perfbench
