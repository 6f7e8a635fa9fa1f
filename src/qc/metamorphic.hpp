// Metamorphic invariant library (verification layer 2).
//
// Each invariant is a known mathematical property of Robinson-Foulds that
// must hold for *any* correct engine, checked on transformed copies of a
// workload (sim/generators + sim/moves provide the transformations):
//
//   relabeling      RF is invariant under a shared permutation of taxa
//   rerooting       unrooted comparison ignores the stored rooting
//   duplicates      RF(T, copy of T) = 0 through every engine family
//   pruning         RF(T|S, T'|S) <= RF(T, T') for any kept-taxa subset S
//                   (each unshared restricted split lifts to a distinct
//                   unshared full split), and restricting to all shared
//                   taxa is the identity
//   NNI delta       one NNI changes at most one bipartition: RF <= 2
//   round-trip      Newick write -> parse -> write is idempotent and
//                   distance-free; a Nexus TREES block re-read likewise
//   saturation      identity-order vs riffle-order caterpillars share no
//                   split, so RF = max = 2(n-3) exactly
//   vector codec    tree -> phylo2vec -> tree is the identity on vectors,
//                   distance-free per tree, and preserves the full
//                   pairwise RF matrix bit-for-bit (binary full-coverage
//                   trees; others are skipped — the codec rejects them)
//
// Failures carry the seed so any run is replayable (--seed / BFHRF_FUZZ_SEED).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "phylo/tree.hpp"
#include "util/rng.hpp"

namespace bfhrf::qc {

struct InvariantOptions {
  /// Drives every sampling decision; echoed in failure messages.
  std::uint64_t seed = 0x5eed;

  /// Trees / pairs sampled per invariant (invariants are O(samples·n²)).
  std::size_t samples = 8;

  bool include_trivial = false;
};

struct InvariantFailure {
  std::string invariant;
  std::string detail;
  [[nodiscard]] std::string to_string() const {
    return invariant + ": " + detail;
  }
};

struct InvariantReport {
  std::vector<InvariantFailure> failures;
  std::vector<std::string> invariants_run;
  std::size_t checks = 0;
  std::uint64_t seed = 0;

  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
  [[nodiscard]] std::string summary() const;
};

/// Run every applicable invariant over the collection. Invariants that
/// need binary trees (NNI delta) skip non-binary members; all trees must
/// share one TaxonSet.
[[nodiscard]] InvariantReport check_invariants(
    std::span<const phylo::Tree> trees, const InvariantOptions& opts = {});

// Individual invariants, exposed for targeted tests. Each appends
// failures to `report` and bumps `report.checks`.
void check_relabeling(std::span<const phylo::Tree> trees, util::Rng& rng,
                      const InvariantOptions& opts, InvariantReport& report);
void check_rerooting(std::span<const phylo::Tree> trees, util::Rng& rng,
                     const InvariantOptions& opts, InvariantReport& report);
void check_duplicates(std::span<const phylo::Tree> trees, util::Rng& rng,
                      const InvariantOptions& opts, InvariantReport& report);
void check_pruning(std::span<const phylo::Tree> trees, util::Rng& rng,
                   const InvariantOptions& opts, InvariantReport& report);
void check_nni_delta(std::span<const phylo::Tree> trees, util::Rng& rng,
                     const InvariantOptions& opts, InvariantReport& report);
void check_round_trip(std::span<const phylo::Tree> trees, util::Rng& rng,
                      const InvariantOptions& opts, InvariantReport& report);
void check_saturation(std::span<const phylo::Tree> trees,
                      const InvariantOptions& opts, InvariantReport& report);
void check_vector_codec(std::span<const phylo::Tree> trees, util::Rng& rng,
                        const InvariantOptions& opts,
                        InvariantReport& report);

}  // namespace bfhrf::qc
