// The BFHRF index format ("BFHMAP"): the one on-disk form of a built
// frequency store. The built tables are persisted verbatim, section-aligned
// so the file can be mmapped read-only and queried IN PLACE:
//
//   offset 0    MappedHeader                (128 bytes, little-endian)
//   offset 128  MappedShardRecord × S       (64 bytes each)
//   aligned 64  shard 0 ctrl bytes          (slot_count bytes)
//   aligned 64  shard 0 slot array          (slot_count × sizeof(Slot))
//   aligned 64  shard 0 key arena           (key_bytes)
//   aligned 64  shard 1 ctrl bytes ... (per shard, in shard order)
//
// Every section starts on a 64-byte boundary (one cache line; also
// satisfies the 16-byte alignment the vectorized group probes require and
// the 8-byte alignment of slots and raw keys), so views constructed over
// the mapped bytes run the exact same probe code as in-memory tables —
// cold-load is an mmap + validation, zero deserialization, and query
// results are bit-identical by construction. A build persists one record
// per shard of its ShardedFrequencyHash (a single record when it ran
// inline). Both key encodings share the slot layout; the header's store
// kind names the encoding, and a shard's key arena holds raw words or
// SparseKeyCodec bytes accordingly. A loaded index answers through the
// same BfhIndexView a build does (MappedIndex::view): there is no
// separate read-only store type.
//
// Stores are add-only, so the tables are written as they stand: every
// ctrl byte is EMPTY or a tag and every key arena is dense. Saves are
// atomic: the writer fills a uniquely named temp file next to the target,
// fsyncs it and renames it over the target, so a reader that still maps
// the old file keeps its old inode and a crash never leaves a torn index.
//
// Where each key sits depends on its fingerprint (util::fingerprint), so
// the fingerprint is part of the format: changing it moves every table
// layout and bumps kMappedVersion.
//
// The format is explicitly little-endian and fixed-layout; static_asserts
// pin the struct sizes. Loading validates magic, version, section bounds,
// 64-byte section alignment, power-of-two shard/slot counts, per-shard vs
// header totals, and makes one pass over every shard's ctrl and slot
// sections (never the key arena): each ctrl byte is EMPTY or FULL, FULL
// exactly where the slot's count is non-zero, at least one EMPTY byte per
// shard (so every probe terminates), and every live slot addresses its
// key inside the arena (raw: key_index < live_keys; sparse: key_index <
// key_bytes — sparse probes bounds-check the rest). Any mismatch throws
// ParseError.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/frequency_hash.hpp"
#include "core/sharded_hash.hpp"

namespace bfhrf::core {

inline constexpr char kMappedMagic[8] = {'B', 'F', 'H', 'M', 'A', 'P', 0, 0};
/// Version 2 places keys by util::fingerprint, the linear fingerprint the
/// extractors fold; version 1 files placed them by util::hash_words, so
/// their slots sit where no version-2 probe looks. Opening one raises a
/// ParseError that asks for a rebuild.
inline constexpr std::uint32_t kMappedVersion = 2;
inline constexpr std::size_t kMappedSectionAlign = 64;

/// Store kinds a mapped index can hold: the key encoding of its shards.
/// Kind 1 was a retired compressed layout with 24-byte slots; such files
/// fail to open with a ParseError that asks for a rebuild.
enum class MappedStoreKind : std::uint32_t {
  Raw = 0,     ///< KeyEncoding::Raw shards
  Sparse = 2,  ///< KeyEncoding::Sparse shards
};

struct MappedHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t store_kind;  ///< MappedStoreKind
  std::uint32_t flags;       ///< bit 0: include_trivial
  std::uint32_t shard_count;
  std::uint64_t n_bits;
  std::uint64_t words_per_key;
  std::uint64_t reference_trees;
  std::uint64_t unique_keys;
  std::uint64_t total_count;
  double total_weight;
  std::uint64_t file_bytes;  ///< exact file size (truncation check)
  std::uint64_t reserved[6];
};
static_assert(sizeof(MappedHeader) == 128,
              "MappedHeader is part of the on-disk format");

struct MappedShardRecord {
  std::uint64_t slot_count;    ///< power of two, multiple of 16
  std::uint64_t ctrl_offset;   ///< file offsets, all 64-byte aligned
  std::uint64_t slots_offset;
  std::uint64_t keys_offset;
  std::uint64_t key_bytes;     ///< arena length in bytes
  std::uint64_t live_keys;
  std::uint64_t total_count;
  double total_weight;  ///< a sharded store keeps its whole total in shard 0
};
static_assert(sizeof(MappedShardRecord) == 64,
              "MappedShardRecord is part of the on-disk format");

inline constexpr std::uint32_t kMappedFlagIncludeTrivial = 1u << 0;

/// Engine metadata carried in the header (what BfhrfOptions needs back).
/// The store kind is the tables' key encoding, not declared here.
struct IndexFileMeta {
  bool include_trivial = false;
  std::size_t reference_trees = 0;
};

/// Write a build's tables to `path` in the mapped format, one shard record
/// per shard, in either key encoding. `total_weight` is the engine's
/// sumBFHR; the header and shard 0's record carry it whole. The write is
/// atomic (temp file, fsync, rename over `path`, fsync of the directory);
/// on failure the temp file is removed and `path` is untouched. Throws
/// Error on I/O failure.
void write_index_file(const ShardedFrequencyHash& tables, double total_weight,
                      const IndexFileMeta& meta, const std::string& path);

/// A validated read-only mmap of an index file (the kernel pages sections
/// in on demand). Throws Error when the file cannot be opened or mapped
/// and ParseError when its contents are invalid. Move-only (a move keeps
/// the mapping where it is, so views over it stay valid); unmaps on
/// destruction.
class MappedIndex {
 public:
  explicit MappedIndex(const std::string& path);
  ~MappedIndex();

  MappedIndex(MappedIndex&& other) noexcept;
  MappedIndex& operator=(MappedIndex&& other) noexcept;
  MappedIndex(const MappedIndex&) = delete;
  MappedIndex& operator=(const MappedIndex&) = delete;

  [[nodiscard]] const MappedHeader& header() const noexcept {
    return *reinterpret_cast<const MappedHeader*>(base_);
  }
  [[nodiscard]] const MappedShardRecord& shard(std::size_t s) const noexcept {
    return reinterpret_cast<const MappedShardRecord*>(
        base_ + sizeof(MappedHeader))[s];
  }
  [[nodiscard]] std::size_t size_bytes() const noexcept { return size_; }

  /// The shards' key encoding (the header's store kind).
  [[nodiscard]] KeyEncoding encoding() const noexcept {
    return header().store_kind ==
                   static_cast<std::uint32_t>(MappedStoreKind::Sparse)
               ? KeyEncoding::Sparse
               : KeyEncoding::Raw;
  }

  /// The read-only store over the mapped sections, zero-copy: one
  /// FrequencyHashView per shard record, the header's totals, and the
  /// file's size as its memory. Valid while this mapping lives.
  [[nodiscard]] BfhIndexView view() const;

  [[nodiscard]] std::span<const std::uint8_t> ctrl(std::size_t s) const {
    const MappedShardRecord& r = shard(s);
    return {base_ + r.ctrl_offset, static_cast<std::size_t>(r.slot_count)};
  }
  [[nodiscard]] std::span<const FrequencyHash::Slot> slots(
      std::size_t s) const {
    const MappedShardRecord& r = shard(s);
    return {reinterpret_cast<const FrequencyHash::Slot*>(base_ +
                                                         r.slots_offset),
            static_cast<std::size_t>(r.slot_count)};
  }
  [[nodiscard]] std::span<const std::byte> arena(std::size_t s) const {
    const MappedShardRecord& r = shard(s);
    return {reinterpret_cast<const std::byte*>(base_ + r.keys_offset),
            static_cast<std::size_t>(r.key_bytes)};
  }

 private:
  void validate(const std::string& path) const;
  void validate_slots(std::size_t s, const std::string& path) const;
  void release() noexcept;

  const std::uint8_t* base_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace bfhrf::core
