// The BFHRF index format ("BFHMAP"): the one on-disk form of a built
// frequency store. A file holds ONE table, section-aligned so it can be
// mmapped read-only and queried IN PLACE:
//
//   offset 0    MappedHeader                (128 bytes, little-endian)
//   offset 128  MappedTableRecord           (64 bytes)
//   aligned 64  ctrl bytes                  (slot_count bytes)
//   aligned 64  slot array                  (slot_count × sizeof(Slot))
//   aligned 64  key arena                   (key_bytes)
//
// Every section starts on a 64-byte boundary (a cache line; also the
// alignment the vectorized group probes, slots and raw keys need), so a
// FrequencyHashView over the mapped bytes runs the in-memory probe code:
// a load is an mmap + validation, and answers are bit-identical. The
// header's store kind names the key encoding (raw words or SparseKeyCodec
// bytes); both share the slot layout. A loaded index answers through the
// same BfhIndexView a build does (MappedIndex::view).
//
// Canonical layout: a file depends only on what the store holds. The
// writer lays every key of every shard out afresh in one table of
// table_size_for(U) slots, in one total order on the keys themselves
// (fingerprint, then key words), and writes the key arena in that order,
// so an inline build's table and a multi-threaded build's shards save the
// same bytes. Saves are atomic (temp file, fsync, rename over the
// target): a reader that still maps the old file keeps its inode, and a
// crash never leaves a torn index. Where a key sits depends on its
// fingerprint (util::fingerprint), so changing the fingerprint bumps
// kMappedVersion.
//
// Loading validates magic, version, a table count of one, section bounds
// and alignment, a power-of-two slot count, the record's totals against
// the header's, and makes one pass over the ctrl and slot sections (never
// the key arena): each ctrl byte is EMPTY or FULL, FULL exactly where the
// slot's count is non-zero, at least one EMPTY byte (so every probe
// terminates), and every live slot addresses its key inside the arena
// (raw: key_index < live_keys; sparse: key_index < key_bytes, and sparse
// probes bounds-check the rest). Any mismatch throws ParseError.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

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

/// Store kinds a mapped index can hold: the key encoding of its table.
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
  std::uint32_t shard_count;  ///< table records; always 1 (multi-threaded
                              ///< saves once wrote one per shard)
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

struct MappedTableRecord {
  std::uint64_t slot_count;    ///< power of two, multiple of 16
  std::uint64_t ctrl_offset;   ///< file offsets, all 64-byte aligned
  std::uint64_t slots_offset;
  std::uint64_t keys_offset;
  std::uint64_t key_bytes;     ///< arena length in bytes
  std::uint64_t live_keys;
  std::uint64_t total_count;
  double total_weight;         ///< the header's, repeated
};
static_assert(sizeof(MappedTableRecord) == 64,
              "MappedTableRecord is part of the on-disk format");

inline constexpr std::uint32_t kMappedFlagIncludeTrivial = 1u << 0;

/// Engine metadata carried in the header (what BfhrfOptions needs back).
/// The store kind is the tables' key encoding, not declared here.
struct IndexFileMeta {
  bool include_trivial = false;
  std::size_t reference_trees = 0;
};

/// Write a build's tables to `path` as one canonical table (see above), in
/// their key encoding. Beside the store it holds 16 bytes per key and the
/// new table's ctrl bytes and slots, and it copies no key arena.
/// `total_weight` is the engine's sumBFHR. The write is atomic; on failure
/// the temp file is removed and `path` is untouched. Throws Error on I/O
/// failure.
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
  [[nodiscard]] const MappedTableRecord& table() const noexcept {
    return *reinterpret_cast<const MappedTableRecord*>(base_ +
                                                       sizeof(MappedHeader));
  }

  /// The table's key encoding (the header's store kind).
  [[nodiscard]] KeyEncoding encoding() const noexcept {
    return header().store_kind ==
                   static_cast<std::uint32_t>(MappedStoreKind::Sparse)
               ? KeyEncoding::Sparse
               : KeyEncoding::Raw;
  }

  /// The read-only store over the mapped sections, zero-copy: a view of
  /// the one table, the header's totals, and the file's size as its
  /// memory. Valid while this mapping lives.
  [[nodiscard]] BfhIndexView view() const;

 private:
  void validate(const std::string& path) const;
  void release() noexcept;

  const std::uint8_t* base_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace bfhrf::core
