// IndexSnapshot: an immutable, serveable version of a built BFH index.
//
// The serving layer (src/serve) hot-swaps index versions under live query
// traffic, which needs a self-contained unit of "everything a query
// touches": the built engine AND the taxon namespace its bitmasks are
// expressed over. An index file stores only bitmasks (core/index_file), so
// a snapshot pins the TaxonSet that gives those bits names — queries
// arriving as Newick text resolve against the snapshot's own namespace, and
// a swapped-in snapshot over a different namespace can never be probed
// with stale bit positions.
//
// Immutability contract: after construction the engine is never mutated,
// the taxon set is frozen, and every member function is const — so any
// number of threads may query one snapshot concurrently (Bfhrf::query_one
// is thread-safe after build, and frozen-TaxonSet parsing is lookup-only).
// Updates are modeled as NEW snapshots published through
// parallel::SnapshotSlot, never as in-place edits.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/bfhrf.hpp"
#include "phylo/taxon_set.hpp"
#include "phylo/tree.hpp"

namespace bfhrf::core {

class IndexSnapshot {
 public:
  /// Wrap a built engine. `taxa` is frozen here if not already frozen
  /// (further growth would let two concurrent parses race on the
  /// namespace; the write is SKIPPED on an already-frozen set so a new
  /// snapshot can be built over a live snapshot's shared namespace without
  /// racing its readers); its width must equal the engine's universe
  /// width. `source` is a human-readable origin tag ("inline", a file
  /// path, …) surfaced by stats endpoints.
  IndexSnapshot(Bfhrf engine, phylo::TaxonSetPtr taxa, std::string source);

  IndexSnapshot(const IndexSnapshot&) = delete;
  IndexSnapshot& operator=(const IndexSnapshot&) = delete;

  /// Build an engine over `reference` and wrap it.
  [[nodiscard]] static std::shared_ptr<const IndexSnapshot> build(
      phylo::TaxonSetPtr taxa, std::span<const phylo::Tree> reference,
      const BfhrfOptions& opts = {}, std::string source = "inline");

  /// Open a saved index file (mmapped and validated, core/index_file)
  /// against an existing namespace. The file stores no taxon labels, so
  /// `taxa` MUST be the namespace the index was built over — the width is
  /// checked (InvalidArgument on mismatch), the label-to-bit assignment
  /// cannot be and is the caller's contract.
  [[nodiscard]] static std::shared_ptr<const IndexSnapshot> open(
      const std::string& path, phylo::TaxonSetPtr taxa,
      const BfhrfOptions& opts = {});

  /// Average RF of one tree against this snapshot's collection.
  [[nodiscard]] double query_one(const phylo::Tree& tree) const {
    return engine_.query_one(tree);
  }

  [[nodiscard]] std::vector<double> query(
      std::span<const phylo::Tree> queries) const {
    return engine_.query(queries);
  }

  /// Score one Newick record against the snapshot's namespace
  /// (Bfhrf::query_newick): its splits come straight from the text on a
  /// per-thread scratch, and the namespace is never written. Throws
  /// ParseError on malformed text or a repeated taxon and InvalidArgument
  /// naming a taxon outside the namespace.
  [[nodiscard]] double query_newick(std::string_view newick) const;

  [[nodiscard]] const Bfhrf& engine() const noexcept { return engine_; }
  [[nodiscard]] const phylo::TaxonSetPtr& taxa() const noexcept {
    return taxa_;
  }
  [[nodiscard]] BfhrfStats stats() const { return engine_.stats(); }
  [[nodiscard]] const std::string& source() const noexcept { return source_; }

 private:
  Bfhrf engine_;
  phylo::TaxonSetPtr taxa_;
  std::string source_;
};

}  // namespace bfhrf::core
