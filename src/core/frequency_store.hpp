// FrequencyStore: the abstract bipartition-frequency map BFHRF builds on.
//
// Three implementations ship:
//  * FrequencyHash        — the table itself, with raw bitmask keys (the
//    default) or losslessly compressed ones (§IX future work: "a loss less
//    and reversible compression of the bipartitions as keys in the hash to
//    further reduce memory"); see KeyEncoding in core/frequency_hash.hpp.
//  * ShardedFrequencyHash — FrequencyHash shards routed by fingerprint
//    (core/sharded_hash.hpp), for lock-free parallel builds.
//  * MappedFrequencyStore — a read-only store served in place off a saved
//    index file (core/index_file.hpp).
//
// All are collision-free (full-key verification) and reversible (keys can
// be enumerated back out), so every consumer — the RF query, variants,
// consensus — works against this interface unchanged. Stores are add-only,
// like the paper's Algorithm 2: BFH_R is built once, then only probed; a
// changed collection is a new build.
#pragma once

#include <cstdint>
#include <functional>

#include "util/bitset.hpp"

namespace bfhrf::core {

class FrequencyStore {
 public:
  virtual ~FrequencyStore() = default;

  /// Taxon-universe width in bits.
  [[nodiscard]] virtual std::size_t n_bits() const = 0;

  /// Number of distinct bipartitions stored.
  [[nodiscard]] virtual std::size_t unique_count() const = 0;

  /// Σ frequencies — the paper's sumBFHR (unit-weight form).
  [[nodiscard]] virtual std::uint64_t total_count() const = 0;

  /// Σ weight·frequency — sumBFHR under a weighted variant.
  [[nodiscard]] virtual double total_weight() const = 0;

  /// Add `count` occurrences of a canonical bipartition with a per-key
  /// weight (1.0 for classic RF).
  virtual void add_weighted(util::ConstWordSpan key, std::uint32_t count,
                            double weight) = 0;

  void add(util::ConstWordSpan key, std::uint32_t count = 1) {
    add_weighted(key, count, 1.0);
  }

  /// Frequency of a bipartition (0 if absent).
  [[nodiscard]] virtual std::uint32_t frequency(
      util::ConstWordSpan key) const = 0;

  /// Enumerate every (key, frequency) pair; keys are decoded to the raw
  /// canonical word form. Order unspecified.
  virtual void for_each_key(
      const std::function<void(util::ConstWordSpan, std::uint32_t)>& fn)
      const = 0;

  /// Exact bytes held by the table and key storage.
  [[nodiscard]] virtual std::size_t memory_bytes() const = 0;

  /// Bytes of stored keys: the key arenas' length in their encoding.
  [[nodiscard]] virtual std::size_t key_bytes() const = 0;

  /// Overwrite the weighted total. ONLY for deserialization: per-key
  /// weights are aggregates that cannot be replayed from counts alone, so
  /// loaders re-add keys with unit weights and then restore this total.
  virtual void set_total_weight(double w) = 0;
};

}  // namespace bfhrf::core
