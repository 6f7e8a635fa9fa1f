// Persistence / sharding equivalence oracle (verification layer for
// core/sharded_hash.hpp and core/index_file.hpp).
//
// Drives a seeded workload through every store shape and on-disk
// round trip the engine supports and asserts they are all bit-for-bit
// interchangeable:
//
//  * a build at each configured thread count — one table inline, or
//    bit_ceil(threads) shards when the build has more than one lane —
//    under both key encodings (raw words and sparse SparseKeyCodec bytes),
//    has the shape its thread count gives, holds exactly the raw
//    single-table store's (key, count) multiset and produces
//    bit-identical query vectors;
//  * the on-disk ("BFHMAP") format round-trips every shape — save, load
//    at the thread count the build ran at (so the query lanes read the
//    mapped file), re-query, compare to the exact double — and every save
//    is byte-identical to the inline build's file of its key encoding and
//    loads as one table, whatever shape the store was built in;
//  * a mapped load actually serves zero-copy (the loaded store's bytes
//    are the file's, not tables rebuilt from it), and so passes the
//    loader's byte-level validation of every ctrl and slot section.
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

  /// Thread counts to build at (0 = hardware default). Each count gives
  /// its own store shape, which is cross-checked against the inline
  /// single-table baseline and round-tripped through an index file.
  std::vector<std::size_t> threads = {1, 2, 4, 8};

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
