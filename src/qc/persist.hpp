// Persistence / sharding equivalence oracle (verification layer for
// core/sharded_hash.hpp and core/index_file.hpp).
//
// Drives a seeded workload through every store shape and on-disk
// round trip the engine supports and asserts they are all bit-for-bit
// interchangeable:
//
//  * the single table and sharded builds (each configured shard count,
//    threaded and inline), under both key encodings (raw words and sparse
//    SparseKeyCodec bytes), hold exactly the raw single-table store's
//    (key, count) multiset and produce bit-identical query vectors;
//  * the on-disk ("BFHMAP") format round-trips every shape — save, load,
//    re-query, compare to the exact double;
//  * a mapped load actually serves zero-copy (the loaded store is the
//    read-only MappedFrequencyStore, not a rebuilt table), and so passes
//    the loader's byte-level validation of every ctrl and slot section.
//
// Failure messages carry the seed in the --seed/BFHRF_FUZZ_SEED replay
// convention. Designed to run under the asan-ubsan preset (mapped views
// probing mmapped sections are exactly where an out-of-bounds read would
// hide).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bfhrf::qc {

struct PersistOracleOptions {
  /// Drives the generated workload (qc::make_workload conventions).
  std::uint64_t seed = 0x5eed;

  std::size_t n = 24;      ///< taxa
  std::size_t r = 24;      ///< reference trees
  std::size_t q = 10;      ///< query trees
  std::size_t moves = 4;   ///< perturbation strength

  /// Shard counts to cross-check against the single-table baseline
  /// (1, the single table, is always checked too).
  std::vector<std::size_t> shard_counts = {2, 8};

  /// Worker threads for the threaded builds (the partials merge of the
  /// single table, the routed, lock-free sharded path); inline
  /// single-threaded builds are always checked too.
  std::size_t threads = 4;

  bool include_trivial = false;

  /// Directory for the round-trip files ("" = std::filesystem temp dir).
  /// Files are named by seed and removed on success and failure alike.
  std::string scratch_dir;
};

struct PersistOracleReport {
  std::vector<std::string> failures;
  std::size_t checks = 0;       ///< individual equivalence assertions
  std::size_t round_trips = 0;  ///< files written and re-loaded
  std::uint64_t seed = 0;

  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
  [[nodiscard]] std::string summary() const;
};

/// Run the oracle. Keeps going after a failure so one run reports every
/// broken configuration.
[[nodiscard]] PersistOracleReport check_persist_equivalence(
    const PersistOracleOptions& opts = {});

}  // namespace bfhrf::qc
