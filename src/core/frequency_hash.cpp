#include "core/frequency_hash.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <type_traits>

#include "core/sharded_hash.hpp"
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

void record_probes(std::uint64_t groups, std::size_t keys) noexcept {
  g_probes.inc(groups);
  if (groups > keys) {
    g_collisions.inc(groups - keys);
  }
}

using RawTag = std::integral_constant<KeyEncoding, KeyEncoding::Raw>;
using SparseTag = std::integral_constant<KeyEncoding, KeyEncoding::Sparse>;

/// Call fn(Group{}, encoding tag) with the SIMD level and the key encoding
/// chosen once, so the loops fn runs carry no per-key branch on either.
template <typename Fn>
decltype(auto) dispatch(KeyEncoding encoding, Fn&& fn) {
  const bool sparse = encoding == KeyEncoding::Sparse;
  if (util::simd::vectorized()) {
    return sparse ? fn(util::simd::Group16Vec{}, SparseTag{})
                  : fn(util::simd::Group16Vec{}, RawTag{});
  }
  return sparse ? fn(util::simd::Group16Swar{}, SparseTag{})
                : fn(util::simd::Group16Swar{}, RawTag{});
}

/// Encode a probe key into this thread's reusable buffer (read paths run
/// on any number of concurrent readers). The bytes stay valid until the
/// thread's next call.
ByteSpan encode_probe(std::size_t n_bits, const std::uint64_t* key) {
  thread_local std::vector<std::byte> buf;
  const SparseKeyCodec codec(n_bits);
  if (buf.size() < codec.max_encoded_size()) {
    buf.resize(codec.max_encoded_size());
  }
  return {buf.data(),
          codec.encode_to({key, util::words_for_bits(n_bits)}, buf.data())};
}

/// Is `enc` the encoding stored at byte `offset` of an arena of
/// `arena_bytes` bytes? The code is prefix-free, so comparing the probe's
/// own length is exact; the bound keeps a long probe from reading past the
/// arena's end.
bool sparse_equal(const std::byte* arena, std::size_t arena_bytes,
                  std::uint32_t offset, ByteSpan enc) noexcept {
  return offset <= arena_bytes && enc.size() <= arena_bytes - offset &&
         std::memcmp(arena + offset, enc.data(), enc.size()) == 0;
}

}  // namespace

std::size_t table_size_for(std::size_t keys) noexcept {
  // The load limit 0.7 in integers, so the bound is exact: the smallest
  // power of two s with 10 * keys <= 7 * s.
  return std::max(util::kGroupWidth, std::bit_ceil((keys * 10 + 6) / 7));
}

FrequencyHash::FrequencyHash(std::size_t n_bits, std::size_t expected_unique,
                             KeyEncoding encoding)
    : n_bits_(n_bits),
      words_per_(util::words_for_bits(n_bits)),
      encoding_(encoding) {
  if (encoding_ == KeyEncoding::Sparse) {
    (void)SparseKeyCodec(n_bits);  // rejects an empty universe
  }
  const std::size_t slot_count = table_size_for(expected_unique);
  dir_.reset(slot_count);
  slots_.assign(slot_count, Slot{});
  if (encoding_ == KeyEncoding::Raw) {
    words_.reserve(expected_unique * words_per_);
  }
}

template <typename Group, KeyEncoding E>
FrequencyHash::Slot& FrequencyHash::upsert(const std::uint64_t* key,
                                           std::uint64_t fp,
                                           std::uint64_t& probe_groups) {
  // The arenas may reallocate between calls, so every probe reads data()
  // fresh.
  const std::size_t wp = words_per_;
  util::GroupDirectory::FindResult r;
  ByteSpan enc;
  if constexpr (E == KeyEncoding::Sparse) {
    enc = encode_probe(n_bits_, key);
    r = dir_.find_with<Group>(fp, [&](std::size_t idx) {
      return sparse_equal(bytes_.data(), bytes_.size(),
                          slots_[idx].key_index, enc);
    });
  } else if (wp == 1) {
    const std::uint64_t k = *key;
    r = dir_.find_with<Group>(fp, [&](std::size_t idx) {
      return words_[slots_[idx].key_index] == k;
    });
  } else {
    r = dir_.find_with<Group>(fp, [&](std::size_t idx) {
      return util::equal_words_fold(
          words_.data() + static_cast<std::size_t>(slots_[idx].key_index) * wp,
          key, wp);
    });
  }
  probe_groups += r.groups_probed;
  if (!r.found && table_size_for(size_ + 1) > slots_.size()) {
    // The new key would push the table past its load limit: double it,
    // then find the key's slot there (it is absent there too).
    rehash(slots_.size() * 2);
    r = dir_.find_insert(fp);
  }
  Slot& s = slots_[r.index];
  if (!r.found) {
    // Append first: a throw leaves the slot EMPTY.
    if constexpr (E == KeyEncoding::Sparse) {
      if (bytes_.size() > 0xffffffffU) {  // slots hold 32-bit offsets
        throw Error("FrequencyHash: sparse key arena exceeds 4 GiB");
      }
      s.key_index = static_cast<std::uint32_t>(bytes_.size());
      bytes_.insert(bytes_.end(), enc.begin(), enc.end());
    } else {
      s.key_index = static_cast<std::uint32_t>(words_.size() / wp);
      words_.insert(words_.end(), key, key + wp);
    }
    dir_.mark(r.index, fp);
    ++size_;
  }
  return s;
}

std::uint32_t FrequencyHash::add(util::ConstWordSpan key, std::uint64_t fp,
                                 std::uint32_t count, double weight) {
  BFHRF_ASSERT(key.size() == words_per_);
  BFHRF_ASSERT(count > 0);
  g_inserts.inc();
  std::uint64_t groups = 0;
  Slot& s = dispatch(encoding_, [&](auto group, auto enc) -> Slot& {
    return upsert<decltype(group), decltype(enc)::value>(key.data(), fp,
                                                         groups);
  });
  record_probes(groups, 1);
  s.count += count;
  total_ += count;
  total_weight_ += static_cast<double>(count) * weight;
  return s.key_index;
}

std::uint32_t FrequencyHash::frequency(util::ConstWordSpan key) const {
  return FrequencyHashView(*this).frequency(key);
}

std::uint32_t FrequencyHash::key_index_of(util::ConstWordSpan key,
                                          std::uint64_t fingerprint) const {
  const auto r = FrequencyHashView(*this).find_key(key, fingerprint);
  return r.found ? slots_[r.index].key_index : kNoKeyIndex;
}

bool FrequencyHashView::holds(std::size_t idx, ByteSpan enc) const noexcept {
  return sparse_equal(bytes_, arena_bytes_, slots_[idx].key_index, enc);
}

util::ConstWordSpan FrequencyHashView::decode(std::uint32_t offset,
                                              util::DynamicBitset& out) const {
  BFHRF_ASSERT(offset <= arena_bytes_);
  (void)SparseKeyCodec(n_bits_).decode(
      ByteSpan{bytes_ + offset, arena_bytes_ - offset}, out);
  return out.words();
}

FrequencyHashView::FindResult FrequencyHashView::find_key(
    util::ConstWordSpan key, std::uint64_t fp) const {
  BFHRF_ASSERT(key.size() == words_per_);
  FindResult r;
  if (encoding_ == KeyEncoding::Sparse) {
    const ByteSpan enc = encode_probe(n_bits_, key.data());
    r = dir_.find(fp, [&](std::size_t idx) { return holds(idx, enc); });
  } else {
    r = dir_.find(fp, [&](std::size_t idx) {
      return util::equal_words_fold(
          words_ +
              static_cast<std::size_t>(slots_[idx].key_index) * words_per_,
          key.data(), words_per_);
    });
  }
  record_probes(r.groups_probed, 1);
  return r;
}

template <typename Group, KeyEncoding E, bool Sharded>
void FrequencyHashView::frequency_many_impl(
    std::span<const FrequencyHashView> shards, const std::uint64_t* keys,
    std::size_t count, std::uint32_t* out,
    const std::uint64_t* fingerprints) {
  // Four-stage prefetch pipeline, one stage per dependent memory level.
  // Stage A takes key i+kCtrlAhead's fingerprint (from the caller's array,
  // or computed from the words) and prefetches its home CONTROL
  // group (one line — slot lines are not touched blindly). Stage B, at
  // i+kSlotAhead, inspects the now-resident control group once — recording
  // its tag/empty masks as a GroupHint — and prefetches only the slot line
  // holding the first candidate; keys with no tag match (an empty-group
  // miss) never touch slot memory at all. Stage C, at i+kKeyAhead, reads
  // the candidate slot (its line hot from B) and prefetches the key-arena
  // line verification will compare against. Stage D resolves key i from
  // the stored hint, touching no control memory in the home-hit case.
  // Hints stay valid because lookups never mutate the directory. Every
  // stage reads the view of the shard that owns the key, picked from the
  // ring's fingerprint by one shift; one table needs no pick.
  constexpr std::size_t kRing = 16;  // power of two: masked ring indexing
  constexpr std::size_t kCtrlAhead = 12;
  constexpr std::size_t kSlotAhead = 8;
  constexpr std::size_t kKeyAhead = 4;
  static_assert(kCtrlAhead < kRing && kKeyAhead < kSlotAhead);
  constexpr std::uint32_t kNoCand = 0xffffffffu;
  const std::size_t n_bits = shards.front().n_bits_;
  const std::size_t wp = shards.front().words_per_;
  const bool one_word = (wp == 1);
  const auto shard_bits =
      static_cast<std::uint32_t>(std::countr_zero(shards.size()));
  const auto shard = [&](std::uint64_t fp) -> const FrequencyHashView& {
    if constexpr (Sharded) {
      return shards[shard_of(fp, shard_bits)];
    } else {
      return shards.front();
    }
  };

  std::uint64_t fps[kRing];
  util::GroupDirectory::GroupHint hints[kRing];
  std::uint32_t cands[kRing];  // first candidate slot, kNoCand if none
  std::uint64_t probe_groups = 0;  // flushed to obs once per batch
  const auto key_i = [&](std::size_t i) {
    return util::ConstWordSpan{keys + i * wp, wp};
  };
  const auto stage_a = [&](std::size_t j) {
    const std::uint64_t fp = fingerprints != nullptr
                                 ? fingerprints[j]
                                 : util::fingerprint(key_i(j));
    fps[j & (kRing - 1)] = fp;
    shard(fp).dir_.prefetch(fp);
  };
  const auto stage_b = [&](std::size_t j) {
    const std::uint64_t fp = fps[j & (kRing - 1)];
    const FrequencyHashView& v = shard(fp);
    const auto hint = v.dir_.inspect<Group>(fp);
    hints[j & (kRing - 1)] = hint;
    std::uint32_t cand = kNoCand;
    if (hint.match_mask != 0) {
      cand = static_cast<std::uint32_t>(
          v.dir_.home_group(fp) * util::kGroupWidth +
          static_cast<std::size_t>(std::countr_zero(hint.match_mask)));
      __builtin_prefetch(v.slots_ + cand);
    }
    cands[j & (kRing - 1)] = cand;
  };
  const auto stage_c = [&](std::size_t j) {
    const std::uint32_t cand = cands[j & (kRing - 1)];
    if (cand != kNoCand) {
      const FrequencyHashView& v = shard(fps[j & (kRing - 1)]);
      const std::size_t at = v.slots_[cand].key_index;
      if constexpr (E == KeyEncoding::Sparse) {
        __builtin_prefetch(v.bytes_ + at);
      } else {
        __builtin_prefetch(v.words_ + at * wp);
      }
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
    const FrequencyHashView& v = shard(fp);
    util::GroupDirectory::FindResult r;
    if constexpr (E == KeyEncoding::Sparse) {
      const ByteSpan enc = encode_probe(n_bits, keys + i * wp);
      r = v.dir_.find_hinted<Group>(
          fp, hint, [&](std::size_t idx) { return v.holds(idx, enc); });
    } else if (one_word) {
      const std::uint64_t k = keys[i];
      r = v.dir_.find_hinted<Group>(fp, hint, [&](std::size_t idx) {
        return v.words_[v.slots_[idx].key_index] == k;
      });
    } else {
      const std::uint64_t* k = keys + i * wp;
      r = v.dir_.find_hinted<Group>(fp, hint, [&](std::size_t idx) {
        return util::equal_words_fold(
            v.words_ + static_cast<std::size_t>(v.slots_[idx].key_index) * wp,
            k, wp);
      });
    }
    probe_groups += r.groups_probed;
    out[i] = v.slots_[r.index].count;
  }
  record_probes(probe_groups, count);
}

void FrequencyHashView::frequency_many(
    std::span<const FrequencyHashView> shards, const std::uint64_t* keys,
    std::size_t count, std::uint32_t* out,
    const std::uint64_t* fingerprints) {
  BFHRF_ASSERT(std::has_single_bit(shards.size()));
  dispatch(shards.front().encoding_, [&](auto group, auto enc) {
    using Group = decltype(group);
    constexpr KeyEncoding kEnc = decltype(enc)::value;
    if (shards.size() > 1) {
      frequency_many_impl<Group, kEnc, true>(shards, keys, count, out,
                                             fingerprints);
    } else {
      frequency_many_impl<Group, kEnc, false>(shards, keys, count, out,
                                              fingerprints);
    }
  });
}

void FrequencyHash::frequency_many(const std::uint64_t* keys,
                                   std::size_t count, std::uint32_t* out,
                                   const std::uint64_t* fingerprints) const {
  const FrequencyHashView view(*this);
  FrequencyHashView::frequency_many({&view, 1}, keys, count, out,
                                    fingerprints);
}

template <typename Group, KeyEncoding E>
void FrequencyHash::add_many_impl(const std::uint64_t* keys,
                                  std::size_t count, const double* weights,
                                  const std::uint64_t* fingerprints) {
  constexpr std::size_t kGroupAhead = 8;
  constexpr std::size_t kKeyAhead = 4;
  const std::size_t wp = words_per_;
  // upsert may double the table and the arenas grow geometrically
  // mid-batch: the ring holds fingerprints, not slots, and every prefetch
  // reads the directory, slots and arenas fresh, so a stale line is only a
  // wasted hint.

  std::uint64_t fps[kGroupAhead];
  std::uint64_t probe_groups = 0;  // flushed to obs once per batch
  const auto fp_of = [&](std::size_t i) {
    return fingerprints != nullptr
               ? fingerprints[i]
               : util::fingerprint(util::ConstWordSpan{keys + i * wp, wp});
  };
  const auto prefetch_groups = [&](std::uint64_t fp) {
    const std::size_t base = dir_.home_group(fp) * util::kGroupWidth;
    dir_.prefetch(fp);
    __builtin_prefetch(slots_.data() + base, 1);
    __builtin_prefetch(slots_.data() + base + 8, 1);
  };
  const std::size_t warm = count < kGroupAhead ? count : kGroupAhead;
  for (std::size_t i = 0; i < warm; ++i) {
    const std::uint64_t fp = fp_of(i);
    fps[i % kGroupAhead] = fp;
    prefetch_groups(fp);
  }
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t fp = fps[i % kGroupAhead];  // read before the
                                                    // stage-A overwrite
    if (i + kGroupAhead < count) {
      const std::uint64_t ahead = fp_of(i + kGroupAhead);
      fps[(i + kGroupAhead) % kGroupAhead] = ahead;
      prefetch_groups(ahead);
    }
    if (i + kKeyAhead < count) {
      const std::uint64_t near = fps[(i + kKeyAhead) % kGroupAhead];
      const std::size_t cand = dir_.first_candidate<Group>(near);
      if (cand != slots_.size()) {
        const std::size_t at = slots_[cand].key_index;
        if constexpr (E == KeyEncoding::Sparse) {
          __builtin_prefetch(bytes_.data() + at);
        } else {
          __builtin_prefetch(words_.data() + at * wp);
        }
      }
    }
    Slot& s = upsert<Group, E>(keys + i * wp, fp, probe_groups);
    s.count += 1;
    total_ += 1;
    total_weight_ += weights != nullptr ? weights[i] : 1.0;
  }
  record_probes(probe_groups, count);
}

void FrequencyHash::add_many(const std::uint64_t* keys, std::size_t count,
                             const double* weights,
                             const std::uint64_t* fingerprints) {
  g_inserts.inc(count);
  dispatch(encoding_, [&](auto group, auto enc) {
    add_many_impl<decltype(group), decltype(enc)::value>(keys, count,
                                                         weights,
                                                         fingerprints);
  });
}

void FrequencyHash::rehash(std::size_t new_slot_count) {
  // No stored fingerprints: recompute each live slot's from its key (the
  // arena is untouched by rehashing, so the view's key reads stay valid).
  const FrequencyHashView view(*this);
  util::DynamicBitset scratch(n_bits_);
  util::CacheAlignedVector<Slot> old = std::move(slots_);
  slots_.assign(new_slot_count, Slot{});
  dir_.reset(new_slot_count);
  for (const Slot& s : old) {
    if (s.count == 0) {
      continue;
    }
    const std::uint64_t fp =
        util::fingerprint(view.key_words(s.key_index, scratch));
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
  const FrequencyHashView view(*this);
  util::DynamicBitset scratch(n_bits_);
  const std::size_t gcount = dir_.group_count();
  std::uint64_t total_groups = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].count == 0) {
      continue;
    }
    const std::uint64_t fp =
        util::fingerprint(view.key_words(slots_[i].key_index, scratch));
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
