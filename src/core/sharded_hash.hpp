// ShardedFrequencyHash — the frequency hash split into S = 2^b private
// FrequencyHash shards, routed by the TOP b bits of the key fingerprint
// (util::fingerprint; util/hash.hpp) — and BfhIndexView, the one read-only
// store every engine answers through.
//
// Why top bits: the group-probed table consumes the fingerprint from the
// bottom up (low 7 bits = control tag, next 57 = home group;
// util/group_table.hpp), so the top bits are statistically independent of
// everything a shard-local probe looks at. Each shard therefore behaves
// exactly like a standalone FrequencyHash over its key subset — same probe
// lengths, same layouts, same probe code — and the routing function is a
// single shift.
//
// What sharding buys:
//  * PARALLEL BUILDS WITHOUT A MERGE. Key ownership is static, so each
//    key is inserted exactly once, into the one shard that owns it. Bfhrf's
//    parallel build routes each key by the fingerprint its extractor
//    folded, stages the key and that fingerprint per worker and per shard,
//    then flushes a full bucket into its shard under that shard's lock
//    (core/bfhrf), so neither the route nor the insert hashes the key:
//    workers flushing different shards never wait on each other. An
//    inline build fills a one-shard store, whose shard is an ordinary
//    single table.
//  * THE SAME FILE AS ONE TABLE. The index writer (core/index_file) lays
//    every shard's keys out afresh in one table, so a sharded build saves
//    an inline build's bytes, and a loaded index needs no shard pick.
//
// Determinism: frequencies are order-independent integer sums, so a
// sharded build reaches bit-identical counts regardless of worker
// interleaving. sumBFHR is not a shard property: Bfhrf folds it from
// per-tree weights in stream order and hands it to the view, so variants
// and both key encodings shard too.
//
// Concurrency model: each shard is a single-writer FrequencyHash, so
// concurrent writers to one shard must serialize (Bfhrf holds a mutex per
// shard while it flushes); the read path is safe for any number of
// concurrent readers once writers are quiesced.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/frequency_hash.hpp"

namespace bfhrf::core {

/// Shard owning the key with fingerprint `fp` under `shard_bits` (top-bit
/// routing; 0 bits = everything in shard 0).
[[nodiscard]] constexpr std::size_t shard_of(std::uint64_t fp,
                                             std::uint32_t shard_bits) noexcept {
  return shard_bits == 0
             ? 0
             : static_cast<std::size_t>(fp >> (64u - shard_bits));
}

/// The tables a build fills: S = 2^b FrequencyHash shards. Only the
/// shards themselves are exposed; every read goes through a BfhIndexView.
class ShardedFrequencyHash {
 public:
  /// `shard_count` is rounded up to a power of two (min 1);
  /// `expected_unique` is split evenly across shards as a pre-size hint;
  /// every shard stores its keys in `encoding`.
  ShardedFrequencyHash(std::size_t n_bits, std::size_t shard_count,
                       std::size_t expected_unique = 0,
                       KeyEncoding encoding = KeyEncoding::Raw);

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] std::uint32_t shard_bits() const noexcept {
    return shard_bits_;
  }
  [[nodiscard]] FrequencyHash& shard(std::size_t s) noexcept {
    return *shards_[s];
  }
  [[nodiscard]] const FrequencyHash& shard(std::size_t s) const noexcept {
    return *shards_[s];
  }

 private:
  std::uint32_t shard_bits_ = 0;
  std::vector<std::unique_ptr<FrequencyHash>> shards_;
};

/// The one read-only store: a routing view over one or more
/// FrequencyHash layouts plus the store's read-side scalars. Bfhrf::store()
/// returns it for built and loaded engines alike, and the query path,
/// consensus, stats, obs gauges and the persist oracle read nothing else.
/// Backed equally by live tables (a build's ShardedFrequencyHash; the
/// view is invalidated by any mutation of them) and by the one table of an
/// mmapped index file (MappedIndex::view, the zero-copy cold-serve path).
/// The scalars are fixed when the view is made.
///
/// Lookups: every batch, whatever the shard count, runs the one 4-stage
/// prefetch pipeline (FrequencyHashView::frequency_many) over the shard
/// views. Its first stage picks each key's shard with shard_of; later
/// stages probe that shard as a lone table, so a one-shard store runs the
/// single-table lookup itself.
class BfhIndexView {
 public:
  BfhIndexView() = default;
  /// View over built tables; `total_weight` is the engine's sumBFHR.
  BfhIndexView(const ShardedFrequencyHash& tables, double total_weight);
  /// View over one table layout holding `keys` distinct keys (a mapped
  /// index file); `memory_bytes` is what backs it.
  BfhIndexView(FrequencyHashView table, std::size_t keys,
               std::uint64_t total_count, double total_weight,
               std::size_t memory_bytes);

  /// Taxon-universe width in bits (0 for an empty view).
  [[nodiscard]] std::size_t n_bits() const noexcept {
    return shards_.empty() ? 0 : shards_.front().n_bits();
  }
  /// Number of distinct bipartitions stored.
  [[nodiscard]] std::size_t unique_count() const noexcept { return unique_; }
  /// Σ frequencies — the paper's sumBFHR under unit weights.
  [[nodiscard]] std::uint64_t total_count() const noexcept {
    return total_count_;
  }
  /// sumBFHR: Σ weight·frequency under the engine's variant.
  [[nodiscard]] double total_weight() const noexcept { return total_weight_; }
  /// Bytes backing the store: the tables' control bytes, slots and key
  /// arenas, or the size of a mapped index file.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return memory_bytes_;
  }
  /// Bytes of stored keys: the key arenas' length in their encoding.
  [[nodiscard]] std::size_t key_bytes() const noexcept;
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  /// Slots over all shards.
  [[nodiscard]] std::size_t capacity_slots() const noexcept;
  /// Largest shard's distinct-key count over the mean (1.0 = perfectly
  /// balanced; also 1.0 for an empty store).
  [[nodiscard]] double shard_skew() const noexcept;

  /// Visit every (key, frequency) pair, shard by shard, keys in raw word
  /// form (sparse keys are decoded). Order is unspecified.
  template <typename Fn>
  void for_each_key(Fn&& fn) const {
    for (const FrequencyHashView& shard : shards_) {
      shard.for_each(fn);
    }
  }

  /// Batched lookup over a contiguous key arena, with the keys'
  /// fingerprints if the caller has them (see
  /// FrequencyHashView::frequency_many for the contract).
  void frequency_many(const std::uint64_t* keys, std::size_t count,
                      std::uint32_t* out,
                      const std::uint64_t* fingerprints = nullptr) const {
    FrequencyHashView::frequency_many(shards_, keys, count, out,
                                      fingerprints);
  }

 private:
  std::vector<FrequencyHashView> shards_;
  std::vector<std::size_t> shard_keys_;  ///< distinct keys per shard
  std::size_t unique_ = 0;
  std::uint64_t total_count_ = 0;
  double total_weight_ = 0.0;
  std::size_t memory_bytes_ = 0;
};

}  // namespace bfhrf::core
