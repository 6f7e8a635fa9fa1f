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
// 64-bit key fingerprint (util::fingerprint, mix64 of a GF(2)-linear map
// of the key words; util/hash.hpp) splits into a 57-bit slot hash choosing
// the home control group and a 7-bit tag stored in a separate control-byte
// directory. Probes compare 16 tags at once (SSE2/NEON/SWAR, runtime
// dispatched via util/simd.hpp); tag hits are verified against the full
// key. Slots are 8 bytes ({key_index, count}) — the fingerprint is NOT
// stored per slot; rehashing recomputes it from the retained keys, and the
// halved slot size keeps a whole group's slots inside two cache lines.
// Both the control directory and the slot array are cache-line aligned.
//
// Key encodings (KeyEncoding, fixed at construction). RAW keys are the
// canonical bitmask words, ⌈n/64⌉ per key. SPARSE keys are SparseKeyCodec
// byte strings (core/key_codec.hpp) — the paper's §IX lossless, reversible
// key compression, which stores a split's smaller side as varint indices
// instead of n/8 bytes. Both encodings share the slot and the fingerprint
// (util::fingerprint of the raw key), so probing, shard routing and the
// on-disk slot layout do not depend on the encoding; only key verification
// does. A raw slot's key_index is a dense key id; a sparse slot's is the
// byte offset of its encoding. A sparse probe encodes its key and compares
// those bytes with the arena: the code is prefix-free, so equal bytes over
// the probe's length (bounds-checked against the arena's end) mean equal
// keys. Rehash, for_each and probe_stats decode sparse keys. The batched
// paths choose the encoding once per call, as they choose the SIMD level,
// so the raw loops carry no per-key encoding branch.
//
// Fingerprints from the caller: the batched insert and lookup take an
// optional array of the keys' fingerprints. The extractors fold each
// split's fingerprint next to its mask (phylo::BipartitionSet::
// fingerprints), so the engine's build and query hand them in and no hot
// path hashes a key; without the array the batch computes
// util::fingerprint from the words, with the same result.
//
// Where it sits: a FrequencyHash is one table, usable on its own (the
// bit-matrix universe, benches). A Bfhrf build fills the shards of a
// ShardedFrequencyHash (one shard when the build runs inline), and the
// engine reads them only through a BfhIndexView (core/sharded_hash.hpp),
// the one read-only store that a loaded index file also serves.
//
// Concurrency model: a FrequencyHash is single-writer. A parallel build
// shards the store and each lane flushes its staged keys into a shard
// while holding that shard's lock (src/core/bfhrf). The read path
// (frequency/frequency_many) is safe for concurrent readers once writers
// are quiesced.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/key_codec.hpp"
#include "util/bitset.hpp"
#include "util/group_table.hpp"
#include "util/hash.hpp"
#include "util/memory.hpp"

namespace bfhrf::core {

/// How a FrequencyHash stores its keys (see the header comment).
enum class KeyEncoding : std::uint8_t {
  Raw,     ///< canonical bitmask words; key_index is a dense key id
  Sparse,  ///< SparseKeyCodec bytes; key_index is the encoding's offset
};

/// Slot count for `keys` distinct keys: the smallest power of two, at
/// least one control group, that holds them at load 0.7 or less (so every
/// probe meets an EMPTY byte). The one sizing rule: the constructor's
/// pre-size, an insert's growth check and the index writer all use it.
[[nodiscard]] std::size_t table_size_for(std::size_t keys) noexcept;

class FrequencyHash {
 public:
  /// One table slot: where the key lives in the arena plus its frequency.
  /// Public (and exactly 8 bytes with no padding) because the mapped index
  /// format (core/index_file) persists slot arrays and FrequencyHashView
  /// addresses them directly over mapped memory.
  struct Slot {
    std::uint32_t key_index = 0;  ///< raw: key id (words at key_index *
                                  ///< words_per); sparse: byte offset
    std::uint32_t count = 0;      ///< 0 marks an empty slot
  };
  static_assert(sizeof(Slot) == 8 && alignof(Slot) == 4,
                "Slot layout is part of the on-disk index format");

  /// `n_bits` = taxon universe width; `expected_unique` pre-sizes the table.
  explicit FrequencyHash(std::size_t n_bits, std::size_t expected_unique = 0,
                         KeyEncoding encoding = KeyEncoding::Raw);

  [[nodiscard]] std::size_t n_bits() const noexcept { return n_bits_; }
  [[nodiscard]] std::size_t words_per_key() const noexcept {
    return words_per_;
  }
  [[nodiscard]] KeyEncoding encoding() const noexcept { return encoding_; }

  /// Number of distinct bipartitions stored.
  [[nodiscard]] std::size_t unique_count() const noexcept { return size_; }

  /// Σ frequencies — the paper's `sumBFHR` (unit-weight case).
  [[nodiscard]] std::uint64_t total_count() const noexcept {
    return total_;
  }

  /// Σ weight·frequency over the weights supplied at insertion. A Bfhrf
  /// engine does not read it: it folds sumBFHR from per-tree weights itself.
  [[nodiscard]] double total_weight() const noexcept {
    return total_weight_;
  }

  /// Add `count` occurrences of a canonical bipartition with a per-key
  /// weight (1.0 for classic RF); `fingerprint` is util::fingerprint(key),
  /// for a caller that has it. Returns the key's slot key_index (see
  /// key_index_of), so a caller keeping per-key columns probes once.
  std::uint32_t add(util::ConstWordSpan key, std::uint32_t count = 1,
                    double weight = 1.0) {
    return add(key, util::fingerprint(key), count, weight);
  }
  std::uint32_t add(util::ConstWordSpan key, std::uint64_t fingerprint,
                    std::uint32_t count, double weight);

  /// Frequency of a bipartition (0 if absent).
  [[nodiscard]] std::uint32_t frequency(util::ConstWordSpan key) const;

  /// Sentinel returned by key_index_of() for an absent key.
  static constexpr std::uint32_t kNoKeyIndex = 0xffffffffU;

  /// Slot key_index of a stored bipartition, or kNoKeyIndex if absent.
  /// Under the raw encoding the arena appends keys in first-insertion
  /// order and never drops one, so these indexes form a dense id space
  /// [0, U) — the universe numbering the bit-matrix all-pairs engine
  /// (core/bit_matrix) encodes trees against. Sparse indexes are byte
  /// offsets, not dense ids. `fingerprint` is util::fingerprint(key), for
  /// a caller that has it.
  [[nodiscard]] std::uint32_t key_index_of(util::ConstWordSpan key) const {
    return key_index_of(key, util::fingerprint(key));
  }
  [[nodiscard]] std::uint32_t key_index_of(util::ConstWordSpan key,
                                           std::uint64_t fingerprint) const;

  /// Batched lookup: `keys` is a contiguous arena of `count` keys of
  /// words_per_key() words each (a BipartitionSet arena qualifies);
  /// out[i] receives the frequency of key i. `fingerprints`, if given,
  /// holds util::fingerprint of each key (a BipartitionSet's
  /// fingerprints()); nullptr computes them from the words. Runs the
  /// one-table case of the prefetch pipeline
  /// FrequencyHashView::frequency_many, which also serves every Bfhrf
  /// query (Algorithm 2's per-split lookup).
  void frequency_many(const std::uint64_t* keys, std::size_t count,
                      std::uint32_t* out,
                      const std::uint64_t* fingerprints = nullptr) const;

  /// Batched insert: add `count` keys from a contiguous arena (one
  /// occurrence each), with per-key weights (`weights[i]`; nullptr = unit
  /// weights) and optional precomputed fingerprints (as in
  /// frequency_many). Runs a software-prefetch pipeline like
  /// frequency_many's; the table grows as add's does, when a new key would
  /// overfill it, so a batch of repeats does not grow it. Insertion order
  /// matches the arena order, so totals accumulate exactly as the per-key
  /// add loop would.
  void add_many(const std::uint64_t* keys, std::size_t count,
                const double* weights,
                const std::uint64_t* fingerprints = nullptr);

  /// Visit every (key, frequency) pair, keys in raw word form (sparse keys
  /// are decoded). Order is unspecified.
  template <typename Fn>
  void for_each(Fn&& fn) const;

  /// Exact bytes held by the control directory (including its cache-line
  /// padding), the slot array, and the key arena.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return dir_.memory_bytes() + slots_.capacity() * sizeof(Slot) +
           words_.capacity() * sizeof(std::uint64_t) + bytes_.capacity();
  }

  /// Bytes of stored keys: the key arena's length in its encoding.
  [[nodiscard]] std::size_t key_bytes() const noexcept {
    return arena().size();
  }

  /// Occupied fraction of the slot table (diagnostics/ablation).
  [[nodiscard]] double load_factor() const noexcept {
    return slots_.empty()
               ? 0.0
               : static_cast<double>(size_) /
                     static_cast<double>(slots_.size());
  }

  /// Total slots: table_size_for(unique_count()) without a pre-size hint.
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

  /// The key arena as bytes (index-file writer): one key per stored
  /// bipartition, either words_per_key() raw words (exactly
  /// unique_count()*words_per_key() words, 8-byte aligned) or one
  /// encoding.
  [[nodiscard]] std::span<const std::byte> arena() const noexcept {
    if (encoding_ == KeyEncoding::Raw) {
      return std::as_bytes(std::span<const std::uint64_t>(words_));
    }
    return {bytes_.data(), bytes_.size()};
  }

  /// Probe-length distribution over the RESIDENT keys: how many control
  /// groups a successful lookup of each stored key walks (1 = found in its
  /// home group). Computed by an O(U) scan on demand (sparse keys are
  /// decoded to rehash them) — the read path keeps no mutable statistics,
  /// so concurrent lookups stay race-free.
  struct ProbeStats {
    double mean_groups = 0.0;
    std::size_t max_groups = 0;
  };
  [[nodiscard]] ProbeStats probe_stats() const;

 private:
  /// Find `key` (fingerprint `fp`), inserting it if absent; returns its
  /// slot. Statically dispatched on the Group type and the encoding (hot
  /// loops hoist both checks); adds the groups probed to `probe_groups`.
  /// Always inlined: it is the body of the add_many loop.
  template <typename Group, KeyEncoding E>
  [[gnu::always_inline]] inline Slot& upsert(const std::uint64_t* key,
                                             std::uint64_t fp,
                                             std::uint64_t& probe_groups);

  template <typename Group, KeyEncoding E>
  void add_many_impl(const std::uint64_t* keys, std::size_t count,
                     const double* weights,
                     const std::uint64_t* fingerprints);

  void rehash(std::size_t new_slot_count);

  std::size_t n_bits_ = 0;
  std::size_t words_per_ = 0;
  KeyEncoding encoding_ = KeyEncoding::Raw;
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
  double total_weight_ = 0.0;
  util::GroupDirectory dir_;               ///< control bytes (7-bit tags)
  util::CacheAlignedVector<Slot> slots_;   ///< power-of-two sized
  std::vector<std::uint64_t> words_;       ///< raw key arena
  std::vector<std::byte> bytes_;           ///< sparse key arena
};

/// Non-owning read-only view over a FrequencyHash layout: the control
/// directory, slot array, and key arena as raw pointers. The lookups live
/// HERE. FrequencyHash's read paths delegate to its view, and the one
/// batched lookup, frequency_many, takes a store's shard views: a single
/// table passes one view, a BfhIndexView (core/sharded_hash.hpp) passes
/// its 2^b shards, each a live table or the one mmapped table of a saved
/// index (core/index_file). The pipeline picks a key's shard from its
/// fingerprint and probes that shard exactly as it would probe a lone
/// table, so every store shape and backing runs the same probe code with
/// bit-identical results. All pointed-to memory must outlive the view and
/// must satisfy the directory's 16-byte alignment requirement; a raw arena
/// must be 8-byte aligned.
class FrequencyHashView {
 public:
  using Slot = FrequencyHash::Slot;
  using FindResult = util::GroupDirectoryView::FindResult;

  FrequencyHashView() = default;
  FrequencyHashView(util::GroupDirectoryView dir, const Slot* slots,
                    std::span<const std::byte> arena, std::size_t n_bits,
                    KeyEncoding encoding) noexcept
      : dir_(dir),
        slots_(slots),
        words_(reinterpret_cast<const std::uint64_t*>(arena.data())),
        bytes_(arena.data()),
        arena_bytes_(arena.size()),
        n_bits_(n_bits),
        words_per_(util::words_for_bits(n_bits)),
        encoding_(encoding) {}

  /// View over a live FrequencyHash (invalidated by any mutation of it).
  explicit FrequencyHashView(const FrequencyHash& h) noexcept
      : FrequencyHashView(h.directory().view(), h.slots().data(), h.arena(),
                          h.n_bits(), h.encoding()) {}

  [[nodiscard]] util::GroupDirectoryView directory() const noexcept {
    return dir_;
  }
  [[nodiscard]] std::size_t n_bits() const noexcept { return n_bits_; }
  [[nodiscard]] std::size_t words_per_key() const noexcept {
    return words_per_;
  }
  [[nodiscard]] KeyEncoding encoding() const noexcept { return encoding_; }
  /// Length of the key arena in bytes.
  [[nodiscard]] std::size_t arena_bytes() const noexcept {
    return arena_bytes_;
  }

  /// Probe for one bipartition (whose util::fingerprint is `fingerprint`):
  /// the matching slot, or the insertion point.
  [[nodiscard]] FindResult find_key(util::ConstWordSpan key,
                                    std::uint64_t fingerprint) const;
  [[nodiscard]] FindResult find_key(util::ConstWordSpan key) const {
    return find_key(key, util::fingerprint(key));
  }

  /// Frequency of one bipartition (0 if absent).
  [[nodiscard]] std::uint32_t frequency(util::ConstWordSpan key) const {
    return slots_[find_key(key).index].count;
  }

  /// Batched lookup in a store of `shards.size()` = 2^b tables that share
  /// one universe width and key encoding, each key living in shard
  /// shard_of(fingerprint, b) (core/sharded_hash.hpp; one shard holds
  /// every key). `keys` is a contiguous arena of `count` keys of
  /// words_per_key() words each (a BipartitionSet arena qualifies); out[i]
  /// receives the frequency of key i, 0 if absent. `fingerprints`, if
  /// given, holds util::fingerprint of each key; nullptr computes them
  /// from the words. A four-stage software-prefetch pipeline, one stage
  /// per dependent memory level: fingerprint (and shard pick), control
  /// group, slot line, key line. Single-word keys (n <= 64) compare as one
  /// 64-bit word.
  static void frequency_many(std::span<const FrequencyHashView> shards,
                             const std::uint64_t* keys, std::size_t count,
                             std::uint32_t* out,
                             const std::uint64_t* fingerprints = nullptr);

  /// The raw words of the key stored at `key_index`: in place for raw
  /// keys, decoded into `scratch` (sized n_bits) for sparse ones.
  [[nodiscard]] util::ConstWordSpan key_words(
      std::uint32_t key_index, util::DynamicBitset& scratch) const {
    if (encoding_ == KeyEncoding::Raw) {
      return {words_ + static_cast<std::size_t>(key_index) * words_per_,
              words_per_};
    }
    return decode(key_index, scratch);
  }

  /// Visit every (key, frequency) pair in slot order, keys in raw word
  /// form.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    util::DynamicBitset scratch(n_bits_);
    for (std::size_t i = 0; i < dir_.slot_count(); ++i) {
      if (slots_[i].count != 0) {
        fn(key_words(slots_[i].key_index, scratch), slots_[i].count);
      }
    }
  }

 private:
  /// frequency_many with the SIMD level, the key encoding and the shard
  /// pick fixed at compile time (one table skips the pick).
  template <typename Group, KeyEncoding E, bool Sharded>
  static void frequency_many_impl(std::span<const FrequencyHashView> shards,
                                  const std::uint64_t* keys,
                                  std::size_t count, std::uint32_t* out,
                                  const std::uint64_t* fingerprints);

  [[nodiscard]] util::ConstWordSpan decode(std::uint32_t offset,
                                           util::DynamicBitset& out) const;

  /// Does slot `idx` hold the sparse key whose encoding is `enc`?
  [[nodiscard]] bool holds(std::size_t idx, ByteSpan enc) const noexcept;

  util::GroupDirectoryView dir_;
  const Slot* slots_ = nullptr;
  const std::uint64_t* words_ = nullptr;  ///< raw arena
  const std::byte* bytes_ = nullptr;      ///< sparse arena (same memory)
  std::size_t arena_bytes_ = 0;
  std::size_t n_bits_ = 0;
  std::size_t words_per_ = 0;
  KeyEncoding encoding_ = KeyEncoding::Raw;
};

template <typename Fn>
void FrequencyHash::for_each(Fn&& fn) const {
  FrequencyHashView(*this).for_each(std::forward<Fn>(fn));
}

}  // namespace bfhrf::core
