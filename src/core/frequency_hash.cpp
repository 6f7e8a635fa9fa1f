#include "core/frequency_hash.hpp"

#include <algorithm>
#include <bit>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace bfhrf::core {
namespace {

// probes = control GROUPS inspected (16 slots per inspection); collisions =
// displaced inspections beyond the home group. Written to the thread-local
// sink, so concurrent read-path lookups stay race-free; the batched
// pipelines accumulate locally and flush once per batch.
const obs::Counter g_probes = obs::counter("core.frequency_hash.probes");
const obs::Counter g_collisions =
    obs::counter("core.frequency_hash.collisions");
const obs::Counter g_inserts = obs::counter("core.frequency_hash.inserts");
const obs::Counter g_merges = obs::counter("core.frequency_hash.merges");

void record_probe(std::size_t groups) noexcept {
  g_probes.inc(groups);
  if (groups > 1) {
    g_collisions.inc(groups - 1);
  }
}

std::size_t table_size_for(std::size_t expected_unique) {
  // Smallest power of two keeping the expected load under kMaxLoad, with a
  // one-group floor so tiny hashes don't grow immediately.
  std::size_t want = util::kGroupWidth;
  while (static_cast<double>(expected_unique) >
         0.7 * static_cast<double>(want)) {
    want <<= 1;
  }
  return want;
}

}  // namespace

FrequencyHash::FrequencyHash(std::size_t n_bits, std::size_t expected_unique)
    : n_bits_(n_bits), words_per_(util::words_for_bits(n_bits)) {
  const std::size_t slot_count = table_size_for(expected_unique);
  dir_.reset(slot_count);
  slots_.assign(slot_count, Slot{});
  keys_.reserve(expected_unique * words_per_);
}

template <typename Group>
util::GroupDirectory::FindResult FrequencyHash::find_key(
    util::ConstWordSpan key, std::uint64_t fp) const noexcept {
  return dir_.find_with<Group>(fp, [&](std::size_t idx) {
    return util::equal_words_fold(
        keys_.data() + static_cast<std::size_t>(slots_[idx].key_index) *
                           words_per_,
        key.data(), words_per_);
  });
}

void FrequencyHash::add_weighted(util::ConstWordSpan key, std::uint32_t count,
                                 double weight) {
  BFHRF_ASSERT(key.size() == words_per_);
  BFHRF_ASSERT(count > 0);
  grow_to_fit(size_ + 1);
  g_inserts.inc();
  const std::uint64_t fp = util::hash_words(key);
  const auto r = util::simd::vectorized()
                     ? find_key<util::simd::Group16Vec>(key, fp)
                     : find_key<util::simd::Group16Swar>(key, fp);
  record_probe(r.groups_probed);
  Slot& s = slots_[r.index];
  if (!r.found) {
    dir_.mark(r.index, fp);
    s.key_index = static_cast<std::uint32_t>(keys_.size() / words_per_);
    keys_.insert(keys_.end(), key.begin(), key.end());
    ++size_;
  }
  s.count += count;
  total_ += count;
  total_weight_ += static_cast<double>(count) * weight;
}

std::uint32_t FrequencyHash::frequency(util::ConstWordSpan key) const {
  BFHRF_ASSERT(key.size() == words_per_);
  const std::uint64_t fp = util::hash_words(key);
  const auto r = util::simd::vectorized()
                     ? find_key<util::simd::Group16Vec>(key, fp)
                     : find_key<util::simd::Group16Swar>(key, fp);
  record_probe(r.groups_probed);
  // An empty slot's count is 0, so found/not-found reads uniformly.
  return slots_[r.index].count;
}

std::uint32_t FrequencyHash::key_index_of(util::ConstWordSpan key) const {
  BFHRF_ASSERT(key.size() == words_per_);
  const std::uint64_t fp = util::hash_words(key);
  const auto r = util::simd::vectorized()
                     ? find_key<util::simd::Group16Vec>(key, fp)
                     : find_key<util::simd::Group16Swar>(key, fp);
  record_probe(r.groups_probed);
  return r.found ? slots_[r.index].key_index : kNoKeyIndex;
}

std::uint32_t FrequencyHashView::frequency(util::ConstWordSpan key) const {
  BFHRF_ASSERT(key.size() == words_per_);
  const std::uint64_t fp = util::hash_words(key);
  const auto r = dir_.find(fp, [&](std::size_t idx) {
    return util::equal_words_fold(
        keys_ + static_cast<std::size_t>(slots_[idx].key_index) * words_per_,
        key.data(), words_per_);
  });
  record_probe(r.groups_probed);
  return slots_[r.index].count;
}

std::uint32_t FrequencyHashView::count_for(std::uint64_t fp,
                                           const std::uint64_t* key,
                                           std::uint64_t& probe_groups) const {
  const std::size_t wp = words_per_;
  util::GroupDirectoryView::FindResult r;
  if (wp == 1) {
    const std::uint64_t k = *key;
    r = dir_.find(fp, [&](std::size_t idx) {
      return keys_[slots_[idx].key_index] == k;
    });
  } else {
    r = dir_.find(fp, [&](std::size_t idx) {
      return util::equal_words_fold(
          keys_ + static_cast<std::size_t>(slots_[idx].key_index) * wp, key,
          wp);
    });
  }
  probe_groups += r.groups_probed;
  return slots_[r.index].count;
}

template <typename Group>
void FrequencyHashView::frequency_many_impl(const std::uint64_t* keys,
                                            std::size_t count,
                                            std::uint32_t* out) const {
  // Four-stage prefetch pipeline, one stage per dependent memory level.
  // Stage A fingerprints key i+kCtrlAhead and prefetches its home CONTROL
  // group (one line — slot lines are not touched blindly). Stage B, at
  // i+kSlotAhead, inspects the now-resident control group once — recording
  // its tag/empty masks as a GroupHint — and prefetches only the slot line
  // holding the first candidate; keys with no tag match (an empty-group
  // miss) never touch slot memory at all. Stage C, at i+kKeyAhead, reads
  // the candidate slot (its line hot from B) and prefetches the key-arena
  // line verification will compare against. Stage D resolves key i from
  // the stored hint, touching no control memory in the home-hit case.
  // Hints stay valid because lookups never mutate the directory.
  constexpr std::size_t kRing = 16;  // power of two: masked ring indexing
  constexpr std::size_t kCtrlAhead = 12;
  constexpr std::size_t kSlotAhead = 8;
  constexpr std::size_t kKeyAhead = 4;
  static_assert(kCtrlAhead < kRing && kKeyAhead < kSlotAhead);
  constexpr std::uint32_t kNoCand = 0xffffffffu;
  const std::size_t wp = words_per_;
  const bool one_word = (wp == 1);

  std::uint64_t fps[kRing];
  util::GroupDirectory::GroupHint hints[kRing];
  std::uint32_t cands[kRing];  // first candidate slot, kNoCand if none
  std::uint64_t probe_groups = 0;  // flushed to obs once per batch
  const auto key_i = [&](std::size_t i) {
    return util::ConstWordSpan{keys + i * wp, wp};
  };
  const auto stage_a = [&](std::size_t j) {
    const std::uint64_t fp = util::hash_words(key_i(j));
    fps[j & (kRing - 1)] = fp;
    dir_.prefetch(fp);
  };
  const auto stage_b = [&](std::size_t j) {
    const std::uint64_t fp = fps[j & (kRing - 1)];
    const auto hint = dir_.inspect<Group>(fp);
    hints[j & (kRing - 1)] = hint;
    std::uint32_t cand = kNoCand;
    if (hint.match_mask != 0) {
      cand = static_cast<std::uint32_t>(
          dir_.home_group(fp) * util::kGroupWidth +
          static_cast<std::size_t>(std::countr_zero(hint.match_mask)));
      __builtin_prefetch(slots_ + cand);
    }
    cands[j & (kRing - 1)] = cand;
  };
  const auto stage_c = [&](std::size_t j) {
    const std::uint32_t cand = cands[j & (kRing - 1)];
    if (cand != kNoCand) {
      __builtin_prefetch(
          keys_ + static_cast<std::size_t>(slots_[cand].key_index) * wp);
    }
  };
  const auto warm = [count](std::size_t ahead) {
    return count < ahead ? count : ahead;
  };
  for (std::size_t i = 0; i < warm(kCtrlAhead); ++i) {
    stage_a(i);
  }
  for (std::size_t i = 0; i < warm(kSlotAhead); ++i) {
    stage_b(i);
  }
  for (std::size_t i = 0; i < warm(kKeyAhead); ++i) {
    stage_c(i);
  }
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t fp = fps[i & (kRing - 1)];
    const auto hint = hints[i & (kRing - 1)];
    if (i + kCtrlAhead < count) {
      stage_a(i + kCtrlAhead);
    }
    if (i + kSlotAhead < count) {
      stage_b(i + kSlotAhead);
    }
    if (i + kKeyAhead < count) {
      stage_c(i + kKeyAhead);
    }
    util::GroupDirectory::FindResult r;
    if (one_word) {
      const std::uint64_t k = keys[i];
      r = dir_.find_hinted<Group>(fp, hint, [&](std::size_t idx) {
        return keys_[slots_[idx].key_index] == k;
      });
    } else {
      const std::uint64_t* k = keys + i * wp;
      r = dir_.find_hinted<Group>(fp, hint, [&](std::size_t idx) {
        return util::equal_words_fold(
            keys_ + static_cast<std::size_t>(slots_[idx].key_index) * wp, k,
            wp);
      });
    }
    probe_groups += r.groups_probed;
    out[i] = slots_[r.index].count;
  }
  g_probes.inc(probe_groups);
  if (probe_groups > count) {
    g_collisions.inc(probe_groups - count);
  }
}

void FrequencyHashView::frequency_many(const std::uint64_t* keys,
                                       std::size_t count,
                                       std::uint32_t* out) const {
  // Hoist the dispatch-level check out of the per-key loop.
  if (util::simd::vectorized()) {
    frequency_many_impl<util::simd::Group16Vec>(keys, count, out);
  } else {
    frequency_many_impl<util::simd::Group16Swar>(keys, count, out);
  }
}

void FrequencyHash::frequency_many(const std::uint64_t* keys,
                                   std::size_t count,
                                   std::uint32_t* out) const {
  FrequencyHashView(*this).frequency_many(keys, count, out);
}

template <typename Group>
void FrequencyHash::add_many_impl(const std::uint64_t* keys,
                                  std::size_t count, const double* weights) {
  constexpr std::size_t kGroupAhead = 8;
  constexpr std::size_t kKeyAhead = 4;
  const std::size_t wp = words_per_;
  const bool one_word = (wp == 1);
  const std::size_t nslots = slots_.size();
  // keys_ growth is left to the vector's geometric policy — an exact
  // reserve per batch would reallocate (and copy) the whole arena on
  // almost every call. Arena prefetches read data() fresh each iteration,
  // so intra-batch reallocation is safe.

  std::uint64_t fps[kGroupAhead];
  std::uint64_t probe_groups = 0;  // flushed to obs once per batch
  const auto key_i = [&](std::size_t i) {
    return util::ConstWordSpan{keys + i * wp, wp};
  };
  const auto prefetch_groups = [&](std::uint64_t fp) {
    const std::size_t base = dir_.home_group(fp) * util::kGroupWidth;
    dir_.prefetch(fp);
    __builtin_prefetch(slots_.data() + base, 1);
    __builtin_prefetch(slots_.data() + base + 8, 1);
  };
  const std::size_t warm = count < kGroupAhead ? count : kGroupAhead;
  for (std::size_t i = 0; i < warm; ++i) {
    const std::uint64_t fp = util::hash_words(key_i(i));
    fps[i % kGroupAhead] = fp;
    prefetch_groups(fp);
  }
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t fp = fps[i % kGroupAhead];  // read before the
                                                    // stage-A overwrite
    if (i + kGroupAhead < count) {
      const std::uint64_t ahead = util::hash_words(key_i(i + kGroupAhead));
      fps[(i + kGroupAhead) % kGroupAhead] = ahead;
      prefetch_groups(ahead);
    }
    if (i + kKeyAhead < count) {
      const std::uint64_t near = fps[(i + kKeyAhead) % kGroupAhead];
      const std::size_t cand = dir_.first_candidate<Group>(near);
      if (cand != nslots) {
        __builtin_prefetch(
            keys_.data() +
            static_cast<std::size_t>(slots_[cand].key_index) * wp);
      }
    }
    util::GroupDirectory::FindResult r;
    if (one_word) {
      const std::uint64_t k = keys[i];
      r = dir_.find_with<Group>(fp, [&](std::size_t idx) {
        return keys_[slots_[idx].key_index] == k;
      });
    } else {
      r = find_key<Group>(key_i(i), fp);
    }
    probe_groups += r.groups_probed;
    Slot& s = slots_[r.index];
    if (!r.found) {
      dir_.mark(r.index, fp);
      s.key_index = static_cast<std::uint32_t>(keys_.size() / wp);
      keys_.insert(keys_.end(), keys + i * wp, keys + (i + 1) * wp);
      ++size_;
    }
    s.count += 1;
    total_ += 1;
    total_weight_ += weights != nullptr ? weights[i] : 1.0;
  }
  g_probes.inc(probe_groups);
  if (probe_groups > count) {
    g_collisions.inc(probe_groups - count);
  }
}

void FrequencyHash::add_many(const std::uint64_t* keys, std::size_t count,
                             const double* weights) {
  if (count == 0) {
    return;
  }
  // Pre-size for the worst case (every key new) so the table never rehashes
  // mid-batch: prefetched group lines stay valid for the whole pipeline.
  grow_to_fit(size_ + count);
  g_inserts.inc(count);
  if (util::simd::vectorized()) {
    add_many_impl<util::simd::Group16Vec>(keys, count, weights);
  } else {
    add_many_impl<util::simd::Group16Swar>(keys, count, weights);
  }
}

void FrequencyHash::reserve(std::size_t expected_unique) {
  keys_.reserve(expected_unique * words_per_);
  grow_to_fit(expected_unique);
}

void FrequencyHash::merge(const FrequencyHash& other) {
  if (other.n_bits_ != n_bits_) {
    throw InvalidArgument("FrequencyHash::merge: universe width mismatch");
  }
  g_merges.inc();
  // Weighted totals must be preserved exactly, so replay each unique key
  // with its aggregate weight contribution. Since weight is a pure function
  // of the key, other's per-key average weight equals the true weight.
  other.for_each([this, &other](util::ConstWordSpan key, std::uint32_t count) {
    (void)other;
    add(key, count);
  });
  // add() accumulated unit weights; fix total_weight_ to account for the
  // true weighted mass moved over.
  total_weight_ += other.total_weight_ - static_cast<double>(other.total_);
}

void FrequencyHash::merge_from(const FrequencyStore& other) {
  const auto* o = dynamic_cast<const FrequencyHash*>(&other);
  if (o == nullptr) {
    throw InvalidArgument("FrequencyHash::merge_from: incompatible store");
  }
  merge(*o);
}

void FrequencyHash::grow_to_fit(std::size_t keys) {
  std::size_t want = slots_.size();
  while (static_cast<double>(keys) > kMaxLoad * static_cast<double>(want)) {
    want <<= 1;
  }
  if (want != slots_.size()) {
    rehash(want);
  }
}

void FrequencyHash::rehash(std::size_t new_slot_count) {
  util::CacheAlignedVector<Slot> old = std::move(slots_);
  slots_.assign(new_slot_count, Slot{});
  dir_.reset(new_slot_count);
  // No stored fingerprints: recompute from the retained keys (the arena is
  // untouched by rehashing, so key_at stays valid throughout).
  for (const Slot& s : old) {
    if (s.count == 0) {
      continue;
    }
    const std::uint64_t fp = util::hash_words(key_at(s.key_index));
    const auto r = dir_.find_insert(fp);
    dir_.mark(r.index, fp);
    slots_[r.index] = s;
  }
}

FrequencyHash::ProbeStats FrequencyHash::probe_stats() const {
  ProbeStats st;
  if (size_ == 0) {
    return st;
  }
  const std::size_t gcount = dir_.group_count();
  std::uint64_t total_groups = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].count == 0) {
      continue;
    }
    const std::uint64_t fp = util::hash_words(key_at(slots_[i].key_index));
    const std::size_t home = dir_.home_group(fp);
    const std::size_t displacement =
        ((i / util::kGroupWidth) + gcount - home) & (gcount - 1);
    total_groups += displacement + 1;
    st.max_groups = std::max(st.max_groups, displacement + 1);
  }
  st.mean_groups =
      static_cast<double>(total_groups) / static_cast<double>(size_);
  return st;
}

}  // namespace bfhrf::core
