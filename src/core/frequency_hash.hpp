// FrequencyHash: the Bipartition Frequency Hash BFH_R (paper §III-A).
//
// Maps canonical bipartition bitmasks to their frequency across the
// reference collection R. Three properties the paper's argument depends on,
// and which this implementation guarantees:
//
//  1. COLLISION-FREE. Open addressing with a fingerprint fast-path *and*
//     full-key verification on every probe; distinct bipartitions can never
//     merge (unlike HashRF's compressed scheme, whose collisions make RF
//     values approximate — §III-C).
//  2. NON-TRANSFORMATIVE. Full keys are retained in an arena, so the hash
//     is reversible: variants can re-examine, filter, or re-weight real
//     bipartitions after the fact (for_each), and a consensus tree can be
//     read straight out of it (core/consensus.hpp).
//  3. BOUNDED BY UNIQUE SPLITS. Memory is O(U · n/64) words for U unique
//     bipartitions — independent of r once the split distribution
//     saturates, which is the paper's sub-linear memory observation
//     (§VII-C).
//
// Layout (Swiss-table-style group probing, util/group_table.hpp): the
// 64-bit key fingerprint splits into a 57-bit slot hash choosing the home
// control group and a 7-bit tag stored in a separate control-byte
// directory. Probes compare 16 tags at once (SSE2/NEON/SWAR, runtime
// dispatched via util/simd.hpp); tag hits are verified against the full
// key. Slots are 8 bytes ({key_index, count}) — the fingerprint is NOT
// stored per slot; rehashing recomputes it from the retained keys, and the
// halved slot size keeps a whole group's slots inside two cache lines.
// Both the control directory and the slot array are cache-line aligned.
//
// Concurrency model: a FrequencyHash is single-writer. Parallel builds give
// each worker a private hash and merge() them afterwards (src/core/bfhrf).
// The read path (frequency/frequency_many) is safe for concurrent readers.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/frequency_store.hpp"
#include "util/bitset.hpp"
#include "util/group_table.hpp"
#include "util/hash.hpp"
#include "util/memory.hpp"

namespace bfhrf::core {

class FrequencyHash final : public FrequencyStore {
 public:
  /// One table slot: an index into the key arena plus the key's frequency.
  /// Public (and exactly 8 bytes with no padding) because the slot array is
  /// persisted verbatim by the mapped index format (core/index_file) and
  /// addressed directly by FrequencyHashView over mapped memory.
  struct Slot {
    std::uint32_t key_index = 0;  ///< key lives at keys[key_index*words_per]
    std::uint32_t count = 0;      ///< 0 marks an empty slot
  };
  static_assert(sizeof(Slot) == 8 && alignof(Slot) == 4,
                "Slot layout is part of the on-disk index format");

  /// `n_bits` = taxon universe width; `expected_unique` pre-sizes the table.
  explicit FrequencyHash(std::size_t n_bits, std::size_t expected_unique = 0);

  [[nodiscard]] std::size_t n_bits() const noexcept override {
    return n_bits_;
  }
  [[nodiscard]] std::size_t words_per_key() const noexcept {
    return words_per_;
  }

  /// Number of distinct bipartitions stored.
  [[nodiscard]] std::size_t unique_count() const noexcept override {
    return size_;
  }

  /// Σ frequencies — the paper's `sumBFHR` (unit-weight case).
  [[nodiscard]] std::uint64_t total_count() const noexcept override {
    return total_;
  }

  /// Σ weight·frequency — `sumBFHR` under a weighted variant. The weight of
  /// each key is supplied at insertion time and must be consistent across
  /// calls (it is a function of the key).
  [[nodiscard]] double total_weight() const noexcept override {
    return total_weight_;
  }

  /// Add `count` occurrences with an explicit per-key weight (`add(key)`
  /// from the base class is the unit-weight shorthand).
  void add_weighted(util::ConstWordSpan key, std::uint32_t count,
                    double weight) override;

  /// Frequency of a bipartition (0 if absent).
  [[nodiscard]] std::uint32_t frequency(
      util::ConstWordSpan key) const override;

  /// Sentinel returned by key_index_of() for an absent key.
  static constexpr std::uint32_t kNoKeyIndex = 0xffffffffU;

  /// Arena index of a stored bipartition, or kNoKeyIndex if absent. The
  /// arena appends keys in first-insertion order and never drops one, so
  /// these indexes form a dense id space [0, U) — the universe numbering
  /// the bit-matrix all-pairs engine (core/bit_matrix) encodes trees
  /// against.
  [[nodiscard]] std::uint32_t key_index_of(util::ConstWordSpan key) const;

  /// Batched lookup: `keys` is a contiguous arena of `count` keys of
  /// words_per_key() words each (a BipartitionSet arena qualifies);
  /// out[i] receives the frequency of key i. Runs a software-prefetch
  /// pipeline — fingerprints are computed ahead, the control-group and
  /// slot-group cache lines are prefetched 8 keys out and the key-arena
  /// line 4 keys out — and takes a single-word-key fast path
  /// (words_per_key() == 1, i.e. n <= 64) that replaces the full-key
  /// memcmp loop with one 64-bit compare. This is the devirtualized hot
  /// path of Bfhrf::query (Algorithm 2's per-split lookup).
  void frequency_many(const std::uint64_t* keys, std::size_t count,
                      std::uint32_t* out) const;

  /// Batched insert: add `count` keys from a contiguous arena (one
  /// occurrence each), with per-key weights (`weights[i]`; nullptr = unit
  /// weights). Runs the same software-prefetch pipeline as
  /// frequency_many — the table is pre-sized for the whole batch up front,
  /// so no rehash invalidates prefetched lines mid-batch. Insertion
  /// order matches the arena order, so totals accumulate exactly as the
  /// per-key add_weighted loop would.
  void add_many(const std::uint64_t* keys, std::size_t count,
                const double* weights);

  /// Pre-size for `expected_unique` distinct keys: one rehash now instead
  /// of a cascade of doublings during build/merge. Never shrinks.
  void reserve(std::size_t expected_unique) override;

  /// Fold another hash into this one (used to combine per-thread builds).
  void merge(const FrequencyHash& other);

  void merge_from(const FrequencyStore& other) override;

  void for_each_key(const std::function<void(util::ConstWordSpan,
                                             std::uint32_t)>& fn)
      const override {
    for_each(fn);
  }

  void set_total_weight(double w) override { total_weight_ = w; }

  /// Visit every (key, frequency) pair. Order is unspecified.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.count != 0) {
        fn(key_at(s.key_index), s.count);
      }
    }
  }

  /// Exact bytes held by the control directory (including its cache-line
  /// padding), the slot array, and the key arena.
  [[nodiscard]] std::size_t memory_bytes() const noexcept override {
    return dir_.memory_bytes() + slots_.capacity() * sizeof(Slot) +
           keys_.capacity() * sizeof(std::uint64_t);
  }

  /// Occupied fraction of the slot table (diagnostics/ablation).
  [[nodiscard]] double load_factor() const noexcept {
    return slots_.empty()
               ? 0.0
               : static_cast<double>(size_) /
                     static_cast<double>(slots_.size());
  }

  /// Total slots (power of two; diagnostics/obs gauges).
  [[nodiscard]] std::size_t capacity_slots() const noexcept {
    return slots_.size();
  }

  /// The control-byte directory (tests / layout-equivalence oracles).
  [[nodiscard]] const util::GroupDirectory& directory() const noexcept {
    return dir_;
  }

  /// The raw slot array (index-file writer; length == capacity_slots()).
  [[nodiscard]] std::span<const Slot> slots() const noexcept {
    return {slots_.data(), slots_.size()};
  }

  /// The raw key arena in words (index-file writer): exactly
  /// unique_count()*words_per_key() words, one key per stored bipartition.
  [[nodiscard]] std::span<const std::uint64_t> key_arena() const noexcept {
    return {keys_.data(), keys_.size()};
  }

  /// Probe-length distribution over the RESIDENT keys: how many control
  /// groups a successful lookup of each stored key walks (1 = found in its
  /// home group). Computed by an O(U) scan on demand — the read path keeps
  /// no mutable statistics, so concurrent lookups stay race-free.
  struct ProbeStats {
    double mean_groups = 0.0;
    std::size_t max_groups = 0;
  };
  [[nodiscard]] ProbeStats probe_stats() const;

 private:
  [[nodiscard]] util::ConstWordSpan key_at(std::uint32_t index) const noexcept {
    return {keys_.data() + static_cast<std::size_t>(index) * words_per_,
            words_per_};
  }

  /// Group-probed find of `key` under fingerprint `fp`; statically
  /// dispatched on the Group type (hot loops hoist the level check).
  template <typename Group>
  [[nodiscard]] util::GroupDirectory::FindResult find_key(
      util::ConstWordSpan key, std::uint64_t fp) const noexcept;

  template <typename Group>
  void add_many_impl(const std::uint64_t* keys, std::size_t count,
                     const double* weights);

  /// Grow (never shrink) so `keys` distinct keys fit under kMaxLoad, which
  /// also leaves every probe an empty byte to stop at.
  void grow_to_fit(std::size_t keys);

  void rehash(std::size_t new_slot_count);

  static constexpr double kMaxLoad = 0.7;

  std::size_t n_bits_ = 0;
  std::size_t words_per_ = 0;
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
  double total_weight_ = 0.0;
  util::GroupDirectory dir_;               ///< control bytes (7-bit tags)
  util::CacheAlignedVector<Slot> slots_;   ///< power-of-two sized
  std::vector<std::uint64_t> keys_;        ///< arena of full keys
};

/// Non-owning read-only view over a FrequencyHash layout: the control
/// directory, slot array, and key arena as raw pointers. The batched
/// lookup pipeline lives HERE — FrequencyHash::frequency_many delegates to
/// its view, a ShardedFrequencyHash exposes one view per shard, and the
/// mapped index (core/index_file) builds views straight over mmapped file
/// sections. One probe implementation, three backings, bit-identical
/// results. All pointed-to memory must outlive the view and must satisfy
/// the directory's 16-byte alignment requirement.
class FrequencyHashView {
 public:
  using Slot = FrequencyHash::Slot;

  FrequencyHashView() = default;
  FrequencyHashView(util::GroupDirectoryView dir, const Slot* slots,
                    const std::uint64_t* keys, std::size_t words_per) noexcept
      : dir_(dir), slots_(slots), keys_(keys), words_per_(words_per) {}

  /// View over a live FrequencyHash (invalidated by any mutation of it).
  explicit FrequencyHashView(const FrequencyHash& h) noexcept
      : FrequencyHashView(h.directory().view(), h.slots().data(),
                          h.key_arena().data(), h.words_per_key()) {}

  [[nodiscard]] util::GroupDirectoryView directory() const noexcept {
    return dir_;
  }
  [[nodiscard]] std::size_t words_per_key() const noexcept {
    return words_per_;
  }

  /// Frequency of one bipartition (0 if absent).
  [[nodiscard]] std::uint32_t frequency(util::ConstWordSpan key) const;

  /// Batched lookup over a contiguous arena of `count` keys — the 4-stage
  /// software-prefetch pipeline documented at
  /// FrequencyHash::frequency_many.
  void frequency_many(const std::uint64_t* keys, std::size_t count,
                      std::uint32_t* out) const;

  /// Prefetch the home control group of `fp` (multi-shard routing loops).
  void prefetch(std::uint64_t fp) const noexcept { dir_.prefetch(fp); }

  /// Count stored for `key` under its precomputed fingerprint (0 if
  /// absent); accumulates control groups probed into `probe_groups` for
  /// the caller's one-flush-per-batch obs accounting.
  [[nodiscard]] std::uint32_t count_for(std::uint64_t fp,
                                        const std::uint64_t* key,
                                        std::uint64_t& probe_groups) const;

 private:
  template <typename Group>
  void frequency_many_impl(const std::uint64_t* keys, std::size_t count,
                           std::uint32_t* out) const;

  util::GroupDirectoryView dir_;
  const Slot* slots_ = nullptr;
  const std::uint64_t* keys_ = nullptr;
  std::size_t words_per_ = 0;
};

}  // namespace bfhrf::core
