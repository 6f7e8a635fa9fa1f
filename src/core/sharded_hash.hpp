// ShardedFrequencyHash — the frequency hash split into S = 2^b private
// FrequencyHash shards, routed by the TOP b bits of the key fingerprint.
//
// Why top bits: the group-probed table consumes the fingerprint from the
// bottom up (low 7 bits = control tag, next 57 = home group;
// util/group_table.hpp), so the top bits are statistically independent of
// everything a shard-local probe looks at. Each shard therefore behaves
// exactly like a standalone FrequencyHash over its key subset — same probe
// lengths, same layouts, same batched pipelines — and the routing function
// is a single shift.
//
// What sharding buys:
//  * PARALLEL BUILDS WITHOUT A MERGE. Key ownership is static, so each
//    key is inserted exactly once, into the one shard that owns it. Bfhrf's
//    parallel build stages keys per worker and per shard, then flushes a
//    full bucket into its shard under that shard's lock (core/bfhrf):
//    workers flushing different shards never wait on each other.
//  * A SHARD-SHAPED FILE FORMAT. The mmap index layout (core/index_file)
//    persists each shard's (ctrl, slots, keys) sections verbatim, so a
//    sharded build streams to disk with no re-keying and maps back with no
//    deserialization.
//
// Determinism: frequencies are order-independent integer sums, so a
// sharded build reaches bit-identical counts regardless of worker
// interleaving. Stores keep no per-key weight, and Bfhrf sets a weighted
// variant's sumBFHR from a stream-order fold of per-tree weights
// (set_total_weight), so variants and both key encodings shard too.
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
#include "core/frequency_store.hpp"

namespace bfhrf::core {

/// Shard owning the key with fingerprint `fp` under `shard_bits` (top-bit
/// routing; 0 bits = everything in shard 0).
[[nodiscard]] constexpr std::size_t shard_of(std::uint64_t fp,
                                             std::uint32_t shard_bits) noexcept {
  return shard_bits == 0
             ? 0
             : static_cast<std::size_t>(fp >> (64u - shard_bits));
}

class ShardedFrequencyHash final : public FrequencyStore {
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

  /// Shard owning `key` (hashes it; build hot paths precompute the
  /// fingerprint and call shard_of directly).
  [[nodiscard]] std::size_t shard_index(util::ConstWordSpan key) const;

  // FrequencyStore interface — totals are sums across shards; mutations
  // route to the owning shard.
  [[nodiscard]] std::size_t n_bits() const noexcept override {
    return n_bits_;
  }
  [[nodiscard]] std::size_t words_per_key() const noexcept {
    return shards_.front()->words_per_key();
  }
  [[nodiscard]] std::size_t unique_count() const noexcept override;
  [[nodiscard]] std::uint64_t total_count() const noexcept override;
  [[nodiscard]] double total_weight() const noexcept override;

  void add_weighted(util::ConstWordSpan key, std::uint32_t count,
                    double weight) override;

  [[nodiscard]] std::uint32_t frequency(util::ConstWordSpan key)
      const override;
  void for_each_key(const std::function<void(util::ConstWordSpan,
                                             std::uint32_t)>& fn)
      const override;
  [[nodiscard]] std::size_t memory_bytes() const override;
  [[nodiscard]] std::size_t key_bytes() const override;

  /// Sets the whole total on shard 0 and zero on the rest, so the sum
  /// across shards is exactly `w` (a per-shard share of a variant's
  /// weighted total has no meaning of its own).
  void set_total_weight(double w) override;

  /// Largest shard's unique-key count over the mean — 1.0 is a perfectly
  /// balanced build (obs gauge bfhrf.build.shard.skew).
  [[nodiscard]] double shard_skew() const;

 private:
  std::size_t n_bits_ = 0;
  std::uint32_t shard_bits_ = 0;
  std::vector<std::unique_ptr<FrequencyHash>> shards_;
};

/// Read-only routing view over one or more FrequencyHash layouts — THE
/// query-path object of the engine, for every store shape and key
/// encoding. One shard: delegates to the shard's full 4-stage prefetch
/// pipeline (bit-identical to the historical single-table fast path).
/// Multiple shards: a fingerprint-routing loop that prefetches each key's
/// home control group in its owning shard a few keys ahead. Backed equally
/// by live tables (Bfhrf after a build) and by mmapped index sections
/// (core/index_file) — the zero-copy cold-serve path.
class BfhIndexView {
 public:
  BfhIndexView() = default;
  explicit BfhIndexView(const FrequencyHash& single)
      : shards_{FrequencyHashView(single)} {}
  explicit BfhIndexView(const ShardedFrequencyHash& sharded);
  BfhIndexView(std::vector<FrequencyHashView> shards,
               std::uint32_t shard_bits)
      : shards_(std::move(shards)), shard_bits_(shard_bits) {}

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// Batched lookup over a contiguous key arena (see
  /// FrequencyHash::frequency_many for the contract).
  void frequency_many(const std::uint64_t* keys, std::size_t count,
                      std::uint32_t* out) const;

 private:
  /// The multi-shard router; E is the shards' common key encoding.
  template <KeyEncoding E>
  void route(const std::uint64_t* keys, std::size_t count,
             std::uint32_t* out) const;

  std::vector<FrequencyHashView> shards_;
  std::uint32_t shard_bits_ = 0;
};

}  // namespace bfhrf::core
