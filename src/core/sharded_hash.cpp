#include "core/sharded_hash.hpp"

#include <algorithm>
#include <bit>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace bfhrf::core {
namespace {

// Lookup probes through the shard router (per-shard pipelines account
// their own probes under core.frequency_hash.*; these count only the
// multi-shard routed path).
const obs::Counter g_routed_probes =
    obs::counter("core.sharded_hash.routed_probes");

std::size_t round_up_pow2(std::size_t v) {
  return v <= 1 ? 1 : std::bit_ceil(v);
}

}  // namespace

ShardedFrequencyHash::ShardedFrequencyHash(std::size_t n_bits,
                                           std::size_t shard_count,
                                           std::size_t expected_unique,
                                           KeyEncoding encoding)
    : n_bits_(n_bits) {
  const std::size_t count = round_up_pow2(shard_count);
  shard_bits_ = static_cast<std::uint32_t>(std::countr_zero(count));
  shards_.reserve(count);
  const std::size_t per_shard = expected_unique / count;
  for (std::size_t s = 0; s < count; ++s) {
    shards_.push_back(
        std::make_unique<FrequencyHash>(n_bits, per_shard, encoding));
  }
}

std::size_t ShardedFrequencyHash::shard_index(util::ConstWordSpan key) const {
  return shard_of(util::hash_words(key), shard_bits_);
}

std::size_t ShardedFrequencyHash::unique_count() const noexcept {
  std::size_t sum = 0;
  for (const auto& s : shards_) {
    sum += s->unique_count();
  }
  return sum;
}

std::uint64_t ShardedFrequencyHash::total_count() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& s : shards_) {
    sum += s->total_count();
  }
  return sum;
}

double ShardedFrequencyHash::total_weight() const noexcept {
  double sum = 0.0;
  for (const auto& s : shards_) {
    sum += s->total_weight();
  }
  return sum;
}

void ShardedFrequencyHash::add_weighted(util::ConstWordSpan key,
                                        std::uint32_t count, double weight) {
  shards_[shard_index(key)]->add_weighted(key, count, weight);
}

std::uint32_t ShardedFrequencyHash::frequency(util::ConstWordSpan key) const {
  return shards_[shard_index(key)]->frequency(key);
}

void ShardedFrequencyHash::for_each_key(
    const std::function<void(util::ConstWordSpan, std::uint32_t)>& fn) const {
  for (const auto& s : shards_) {
    s->for_each_key(fn);
  }
}

std::size_t ShardedFrequencyHash::memory_bytes() const {
  std::size_t sum = 0;
  for (const auto& s : shards_) {
    sum += s->memory_bytes();
  }
  return sum;
}

std::size_t ShardedFrequencyHash::key_bytes() const {
  std::size_t sum = 0;
  for (const auto& s : shards_) {
    sum += s->key_bytes();
  }
  return sum;
}

void ShardedFrequencyHash::set_total_weight(double w) {
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    shards_[s]->set_total_weight(0.0);
  }
  shards_[0]->set_total_weight(w);
}

double ShardedFrequencyHash::shard_skew() const {
  const std::size_t unique = unique_count();
  if (unique == 0) {
    return 1.0;
  }
  std::size_t largest = 0;
  for (const auto& s : shards_) {
    largest = std::max(largest, s->unique_count());
  }
  const double mean =
      static_cast<double>(unique) / static_cast<double>(shards_.size());
  return static_cast<double>(largest) / mean;
}

BfhIndexView::BfhIndexView(const ShardedFrequencyHash& sharded)
    : shard_bits_(sharded.shard_bits()) {
  shards_.reserve(sharded.shard_count());
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    shards_.emplace_back(sharded.shard(s));
  }
}

void BfhIndexView::frequency_many(const std::uint64_t* keys,
                                  std::size_t count,
                                  std::uint32_t* out) const {
  if (shards_.size() == 1) {
    // Single table: the full 4-stage hinted prefetch pipeline.
    shards_[0].frequency_many(keys, count, out);
  } else if (shards_[0].encoding() == KeyEncoding::Sparse) {
    route<KeyEncoding::Sparse>(keys, count, out);
  } else {
    route<KeyEncoding::Raw>(keys, count, out);
  }
}

template <KeyEncoding E>
void BfhIndexView::route(const std::uint64_t* keys, std::size_t count,
                         std::uint32_t* out) const {
  // Multi-shard router: fingerprint + shard a few keys ahead and prefetch
  // each key's home control group inside its owning shard, then resolve
  // in order. Shallower than the single-table pipeline (the shard is a
  // data-dependent indirection), but the control line is resident by
  // resolve time, which is most of the win.
  constexpr std::size_t kAhead = 8;
  const std::size_t wp = shards_[0].words_per_key();
  std::uint64_t fps[kAhead];
  std::uint32_t sids[kAhead];
  std::uint64_t probe_groups = 0;
  const auto stage = [&](std::size_t j) {
    const std::uint64_t fp = util::hash_words({keys + j * wp, wp});
    const std::uint32_t sid =
        static_cast<std::uint32_t>(shard_of(fp, shard_bits_));
    fps[j % kAhead] = fp;
    sids[j % kAhead] = sid;
    shards_[sid].prefetch(fp);
  };
  const std::size_t warm = count < kAhead ? count : kAhead;
  for (std::size_t i = 0; i < warm; ++i) {
    stage(i);
  }
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t fp = fps[i % kAhead];
    const std::uint32_t sid = sids[i % kAhead];
    if (i + kAhead < count) {
      stage(i + kAhead);
    }
    out[i] =
        shards_[sid].template count_for<E>(fp, keys + i * wp, probe_groups);
  }
  g_routed_probes.inc(probe_groups);
}

}  // namespace bfhrf::core
