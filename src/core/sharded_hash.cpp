#include "core/sharded_hash.hpp"

#include <algorithm>
#include <bit>

namespace bfhrf::core {
namespace {

std::size_t round_up_pow2(std::size_t v) {
  return v <= 1 ? 1 : std::bit_ceil(v);
}

}  // namespace

ShardedFrequencyHash::ShardedFrequencyHash(std::size_t n_bits,
                                           std::size_t shard_count,
                                           std::size_t expected_unique,
                                           KeyEncoding encoding) {
  const std::size_t count = round_up_pow2(shard_count);
  shard_bits_ = static_cast<std::uint32_t>(std::countr_zero(count));
  shards_.reserve(count);
  const std::size_t per_shard = expected_unique / count;
  for (std::size_t s = 0; s < count; ++s) {
    shards_.push_back(
        std::make_unique<FrequencyHash>(n_bits, per_shard, encoding));
  }
}

BfhIndexView::BfhIndexView(const ShardedFrequencyHash& tables,
                           double total_weight)
    : total_weight_(total_weight) {
  shards_.reserve(tables.shard_count());
  shard_keys_.reserve(tables.shard_count());
  for (std::size_t s = 0; s < tables.shard_count(); ++s) {
    const FrequencyHash& shard = tables.shard(s);
    shards_.emplace_back(shard);
    shard_keys_.push_back(shard.unique_count());
    unique_ += shard.unique_count();
    total_count_ += shard.total_count();
    memory_bytes_ += shard.memory_bytes();
  }
}

BfhIndexView::BfhIndexView(FrequencyHashView table, std::size_t keys,
                           std::uint64_t total_count, double total_weight,
                           std::size_t memory_bytes)
    : shards_{table},
      shard_keys_{keys},
      unique_(keys),
      total_count_(total_count),
      total_weight_(total_weight),
      memory_bytes_(memory_bytes) {}

std::size_t BfhIndexView::key_bytes() const noexcept {
  std::size_t sum = 0;
  for (const FrequencyHashView& shard : shards_) {
    sum += shard.arena_bytes();
  }
  return sum;
}

std::size_t BfhIndexView::capacity_slots() const noexcept {
  std::size_t sum = 0;
  for (const FrequencyHashView& shard : shards_) {
    sum += shard.directory().slot_count();
  }
  return sum;
}

double BfhIndexView::shard_skew() const noexcept {
  if (unique_ == 0) {
    return 1.0;
  }
  const std::size_t largest =
      *std::max_element(shard_keys_.begin(), shard_keys_.end());
  const double mean =
      static_cast<double>(unique_) / static_cast<double>(shards_.size());
  return static_cast<double>(largest) / mean;
}

}  // namespace bfhrf::core
