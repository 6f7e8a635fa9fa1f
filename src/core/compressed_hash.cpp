#include "core/compressed_hash.hpp"

#include <cstring>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace bfhrf::core {
namespace {

// Mirrors core.frequency_hash.* for the compressed-key store (probes =
// control groups inspected per lookup; see core/frequency_hash.cpp).
const obs::Counter g_probes = obs::counter("core.compressed_hash.probes");
const obs::Counter g_collisions =
    obs::counter("core.compressed_hash.collisions");
const obs::Counter g_inserts = obs::counter("core.compressed_hash.inserts");

void record_probe(std::size_t steps) noexcept {
  g_probes.inc(steps);
  if (steps > 1) {
    g_collisions.inc(steps - 1);
  }
}

std::size_t table_size_for(std::size_t expected_unique) {
  std::size_t want = util::kGroupWidth;
  while (static_cast<double>(expected_unique) >
         0.7 * static_cast<double>(want)) {
    want <<= 1;
  }
  return want;
}

/// Scratch buffer for encodings on the read path; thread-local so
/// concurrent lookups after the build are safe.
std::vector<std::byte>& tl_scratch() {
  thread_local std::vector<std::byte> scratch;
  return scratch;
}

}  // namespace

CompressedFrequencyHash::CompressedFrequencyHash(std::size_t n_bits,
                                                 std::size_t expected_unique)
    : codec_(n_bits), slots_(table_size_for(expected_unique)) {
  dir_.reset(slots_.size());
}

util::GroupDirectory::FindResult CompressedFrequencyHash::find(
    ByteSpan encoded, std::uint64_t fp) const noexcept {
  const auto r = dir_.find(fp, [&](std::size_t idx) {
    const Slot& s = slots_[idx];
    return s.fingerprint == fp && s.length == encoded.size() &&
           std::memcmp(arena_.data() + s.offset, encoded.data(),
                       encoded.size()) == 0;
  });
  record_probe(r.groups_probed);
  return r;
}

void CompressedFrequencyHash::add_weighted(util::ConstWordSpan key,
                                           std::uint32_t count,
                                           double weight) {
  BFHRF_ASSERT(key.size() == util::words_for_bits(codec_.n_bits()));
  BFHRF_ASSERT(count > 0);
  ensure_capacity(1);
  g_inserts.inc();
  auto& scratch = tl_scratch();
  scratch.clear();
  codec_.encode(key, scratch);
  // Fingerprint the raw words (identical to what lookups compute).
  const std::uint64_t fp = util::hash_words(key);
  const auto r = find(scratch, fp);
  Slot& s = slots_[r.index];
  if (!r.found) {
    dir_.mark(r.index, fp);
    s.fingerprint = fp;
    s.offset = static_cast<std::uint32_t>(arena_.size());
    s.length = static_cast<std::uint32_t>(scratch.size());
    arena_.insert(arena_.end(), scratch.begin(), scratch.end());
    ++size_;
  }
  s.count += count;
  total_ += count;
  total_weight_ += static_cast<double>(count) * weight;
}

std::uint32_t CompressedFrequencyHash::frequency(
    util::ConstWordSpan key) const {
  BFHRF_ASSERT(key.size() == util::words_for_bits(codec_.n_bits()));
  auto& scratch = tl_scratch();
  scratch.clear();
  codec_.encode(key, scratch);
  const std::uint64_t fp = util::hash_words(key);
  return slots_[find(scratch, fp).index].count;
}

void CompressedFrequencyHash::merge_from(const FrequencyStore& other) {
  const auto* o = dynamic_cast<const CompressedFrequencyHash*>(&other);
  if (o == nullptr || o->n_bits() != n_bits()) {
    throw InvalidArgument(
        "CompressedFrequencyHash::merge_from: incompatible store");
  }
  o->for_each_key([this](util::ConstWordSpan key, std::uint32_t count) {
    add(key, count);
  });
  // add() accumulated unit weights; restore the true weighted mass.
  total_weight_ += o->total_weight_ - static_cast<double>(o->total_);
}

void CompressedFrequencyHash::for_each_key(
    const std::function<void(util::ConstWordSpan, std::uint32_t)>& fn) const {
  util::DynamicBitset decoded(codec_.n_bits());
  for (const Slot& s : slots_) {
    if (s.count == 0) {
      continue;
    }
    (void)codec_.decode(ByteSpan{arena_.data() + s.offset, s.length},
                        decoded);
    fn(decoded.words(), s.count);
  }
}

std::uint32_t CompressedHashView::frequency(util::ConstWordSpan key) const {
  BFHRF_ASSERT(key.size() == util::words_for_bits(codec_.n_bits()));
  auto& scratch = tl_scratch();
  scratch.clear();
  codec_.encode(key, scratch);
  const std::uint64_t fp = util::hash_words(key);
  const auto r = dir_.find(fp, [&](std::size_t idx) {
    const Slot& s = slots_[idx];
    return s.fingerprint == fp && s.length == scratch.size() &&
           std::memcmp(arena_ + s.offset, scratch.data(), scratch.size()) ==
               0;
  });
  record_probe(r.groups_probed);
  return slots_[r.index].count;
}

void CompressedFrequencyHash::ensure_capacity(std::size_t incoming) {
  // Same growth policy as FrequencyHash::grow_to_fit.
  std::size_t want = slots_.size();
  while (static_cast<double>(size_ + incoming) >
         kMaxLoad * static_cast<double>(want)) {
    want <<= 1;
  }
  if (want == slots_.size()) {
    return;
  }
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(want, Slot{});
  dir_.reset(slots_.size());
  for (const Slot& s : old) {
    if (s.count == 0) {
      continue;
    }
    const auto r = dir_.find_insert(s.fingerprint);
    dir_.mark(r.index, s.fingerprint);
    slots_[r.index] = s;
  }
}

}  // namespace bfhrf::core
