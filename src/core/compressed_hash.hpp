// CompressedFrequencyHash — the frequency hash with losslessly compressed
// keys (paper §IX future work). Same collision-free, reversible semantics
// as FrequencyHash; keys live in a byte arena as SparseKeyCodec encodings
// instead of fixed-width bitmasks.
//
// Trade-off (quantified in bench_ablation_hash A4c): key bytes shrink by
// the ratio of n/8 to the smaller side's varint cost — large for big n and
// shallow splits — at the price of an encode per insert/lookup.
//
// Concurrency model matches FrequencyHash: single writer, thread-safe
// concurrent readers after the build (lookups use thread-local scratch).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/frequency_store.hpp"
#include "core/key_codec.hpp"
#include "util/group_table.hpp"

namespace bfhrf::core {

class CompressedFrequencyHash final : public FrequencyStore {
 public:
  /// One table slot. Public because the slot array is persisted verbatim by
  /// the mapped index format (core/index_file) and addressed directly by
  /// CompressedHashView over mapped memory. 24 bytes including 4 bytes of
  /// tail padding — the index writer zero-fills records before assigning
  /// fields so persisted padding is deterministic.
  struct Slot {
    std::uint64_t fingerprint = 0;  ///< kept for rehash (encodings are not
                                    ///< re-hashed to recover it)
    std::uint32_t offset = 0;  ///< byte offset of the encoding in arena_
    std::uint32_t length = 0;  ///< encoding length in bytes
    std::uint32_t count = 0;   ///< 0 marks an empty slot
  };
  static_assert(sizeof(Slot) == 24 && alignof(Slot) == 8,
                "Slot layout is part of the on-disk index format");

  explicit CompressedFrequencyHash(std::size_t n_bits,
                                   std::size_t expected_unique = 0);

  [[nodiscard]] std::size_t n_bits() const override { return codec_.n_bits(); }
  [[nodiscard]] std::size_t unique_count() const override { return size_; }
  [[nodiscard]] std::uint64_t total_count() const override { return total_; }
  [[nodiscard]] double total_weight() const override { return total_weight_; }

  void add_weighted(util::ConstWordSpan key, std::uint32_t count,
                    double weight) override;

  [[nodiscard]] std::uint32_t frequency(
      util::ConstWordSpan key) const override;

  void merge_from(const FrequencyStore& other) override;

  void set_total_weight(double w) override { total_weight_ = w; }

  void for_each_key(const std::function<void(util::ConstWordSpan,
                                             std::uint32_t)>& fn)
      const override;

  [[nodiscard]] std::size_t memory_bytes() const override {
    return dir_.memory_bytes() + slots_.capacity() * sizeof(Slot) +
           arena_.capacity();
  }

  /// Average encoded key size in bytes (diagnostics / ablation A4c).
  [[nodiscard]] double mean_key_bytes() const noexcept {
    return size_ == 0 ? 0.0
                      : static_cast<double>(arena_.size()) /
                            static_cast<double>(size_);
  }

  /// The control-byte directory (index-file writer / layout oracles).
  [[nodiscard]] const util::GroupDirectory& directory() const noexcept {
    return dir_;
  }

  /// The raw slot array (index-file writer; length is the slot capacity).
  [[nodiscard]] std::span<const Slot> slots() const noexcept {
    return {slots_.data(), slots_.size()};
  }

  /// The raw encoding arena (index-file writer): one encoding per stored
  /// bipartition.
  [[nodiscard]] std::span<const std::byte> arena() const noexcept {
    return {arena_.data(), arena_.size()};
  }

 private:
  /// Group-probed find for the slot matching (`fp`, encoded bytes); see
  /// util/group_table.hpp for the control-byte scheme shared with
  /// FrequencyHash.
  [[nodiscard]] util::GroupDirectory::FindResult find(
      ByteSpan encoded, std::uint64_t fp) const noexcept;

  void ensure_capacity(std::size_t incoming);

  static constexpr double kMaxLoad = 0.7;

  SparseKeyCodec codec_;
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
  double total_weight_ = 0.0;
  util::GroupDirectory dir_;
  std::vector<Slot> slots_;
  std::vector<std::byte> arena_;
};

/// Non-owning read-only view over a CompressedFrequencyHash layout — the
/// mapped-index query path (core/index_file). frequency() encodes the
/// probe key into thread-local scratch and compares encoded bytes against
/// the (possibly mmapped) arena, exactly like the owning store's read
/// path, so mapped and in-memory lookups are bit-identical. All pointed-to
/// memory must outlive the view; the ctrl section must be 16-byte aligned
/// and the slot section 8-byte aligned.
class CompressedHashView {
 public:
  using Slot = CompressedFrequencyHash::Slot;

  CompressedHashView() = default;
  CompressedHashView(std::size_t n_bits, util::GroupDirectoryView dir,
                     const Slot* slots, const std::byte* arena) noexcept
      : codec_(n_bits), dir_(dir), slots_(slots), arena_(arena) {}

  /// View over a live store (invalidated by any mutation of it).
  explicit CompressedHashView(const CompressedFrequencyHash& h) noexcept
      : CompressedHashView(h.n_bits(), h.directory().view(),
                           h.slots().data(), h.arena().data()) {}

  /// Frequency of one bipartition (0 if absent).
  [[nodiscard]] std::uint32_t frequency(util::ConstWordSpan key) const;

 private:
  SparseKeyCodec codec_{1};
  util::GroupDirectoryView dir_;
  const Slot* slots_ = nullptr;
  const std::byte* arena_ = nullptr;
};

}  // namespace bfhrf::core
