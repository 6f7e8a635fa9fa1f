#include "core/index_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <new>
#include <utility>

#include "obs/metrics.hpp"
#include "util/atomic_file.hpp"
#include "util/bitset.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace bfhrf::core {
namespace {

const obs::Counter g_writes = obs::counter("bfhrf.index.file.writes");
const obs::Counter g_mmap_loads = obs::counter("bfhrf.index.mmap.loads");
const obs::Gauge g_mmap_bytes = obs::gauge("bfhrf.index.mmap.bytes");
const obs::Histogram g_load_seconds =
    obs::histogram("bfhrf.index.mmap.load_seconds");

constexpr std::uint64_t align_up(std::uint64_t v) noexcept {
  return (v + (kMappedSectionAlign - 1)) &
         ~std::uint64_t{kMappedSectionAlign - 1};
}

void require(bool ok, const std::string& path, const char* what) {
  if (!ok) {
    throw ParseError("mapped index '" + path + "': " + what);
  }
}

[[noreturn]] void throw_io(const std::string& what, const std::string& path) {
  throw Error(what + " '" + path + "': " + std::strerror(errno));
}

/// Whole anonymous pages, unmapped on free, for the writer's large
/// short-lived buffers: freed through malloc they would raise glibc's mmap
/// threshold and fragment the heap of a process that saves repeatedly.
template <typename T>
struct PageAllocator {
  using value_type = T;
  PageAllocator() noexcept = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) noexcept {}  // NOLINT
  [[nodiscard]] T* allocate(std::size_t n) {
    void* p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    return p == MAP_FAILED ? throw std::bad_alloc() : static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t n) noexcept { ::munmap(p, n * sizeof(T)); }
  bool operator==(const PageAllocator&) const noexcept { return true; }
};
template <typename T>
using PageVector = std::vector<T, PageAllocator<T>>;

/// One stored key as the writer orders and places it: its fingerprint and
/// where it lives in the store (shard, slot). 16 bytes per key.
struct KeyRef {
  std::uint64_t fp;
  std::uint32_t shard;
  std::uint32_t slot;
};

}  // namespace

void write_index_file(const ShardedFrequencyHash& tables, double total_weight,
                      const IndexFileMeta& meta, const std::string& path) {
  if (std::endian::native != std::endian::little) {
    throw Error("the mapped index format is little-endian only");
  }
  const std::size_t n_bits = tables.shard(0).n_bits();
  const std::size_t wp = tables.shard(0).words_per_key();
  const bool sparse = tables.shard(0).encoding() == KeyEncoding::Sparse;
  MappedHeader h{};
  MappedTableRecord r{};
  for (std::size_t s = 0; s < tables.shard_count(); ++s) {
    r.live_keys += tables.shard(s).unique_count();
    r.total_count += tables.shard(s).total_count();
    r.key_bytes += tables.shard(s).arena().size();
  }
  // Slots address keys by 32-bit index: a key id (raw) or byte offset.
  if ((sparse ? r.key_bytes : r.live_keys) > 0xffffffffU) {
    throw Error("write_index_file: too many keys for one table");
  }
  const auto slot_of = [&](const KeyRef& k) -> const FrequencyHash::Slot& {
    return tables.shard(k.shard).slots()[k.slot];
  };
  util::DynamicBitset scratch_a(n_bits);
  util::DynamicBitset scratch_b(n_bits);
  const auto words_of = [&](const KeyRef& k, util::DynamicBitset& scratch) {
    return FrequencyHashView(tables.shard(k.shard))
        .key_words(slot_of(k).key_index, scratch);
  };
  // A key's bytes in its shard's arena: its words, or its encoding.
  const SparseKeyCodec codec(n_bits);
  const auto stored = [&](const KeyRef& k) {
    const std::span<const std::byte> arena = tables.shard(k.shard).arena();
    const std::size_t at = slot_of(k).key_index;
    if (sparse) {
      const std::span<const std::byte> rest = arena.subspan(at);
      return rest.first(codec.encoded_size(rest));
    }
    const std::size_t size = wp * sizeof(std::uint64_t);
    return arena.subspan(at * size, size);
  };

  // Every key with its fingerprint, in one total order on the keys
  // themselves: fingerprint, then words. The order fixes both where each
  // key lands in the table and where it sits in the arena, so neither
  // depends on the store's shape or insertion history.
  PageVector<KeyRef> order;
  order.reserve(r.live_keys);
  for (std::uint32_t s = 0; s < tables.shard_count(); ++s) {
    const std::span<const FrequencyHash::Slot> slots = tables.shard(s).slots();
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].count != 0) {
        order.push_back({0, s, static_cast<std::uint32_t>(i)});
        order.back().fp = util::fingerprint(words_of(order.back(), scratch_a));
      }
    }
  }
  std::sort(order.begin(), order.end(), [&](const KeyRef& x, const KeyRef& y) {
    return x.fp != y.fp ? x.fp < y.fp
                        : util::compare_words(words_of(x, scratch_a),
                                              words_of(y, scratch_b)) < 0;
  });

  // One table sized by the build's own rule, filled the way rehash fills
  // one: each key at its probe's insertion point, in key order. A slot
  // addresses its key by its place in the arena written in that order.
  r.slot_count = table_size_for(r.live_keys);
  PageVector<std::uint8_t> ctrl(r.slot_count, util::kCtrlEmpty);
  const util::GroupDirectoryView dir(ctrl.data(), r.slot_count);
  PageVector<FrequencyHash::Slot> slots(r.slot_count);
  std::uint64_t at = 0;
  for (const KeyRef& k : order) {
    const auto place = dir.find_insert(k.fp);
    ctrl[place.index] = util::ctrl_tag(k.fp);
    slots[place.index] = {static_cast<std::uint32_t>(at), slot_of(k).count};
    at += sparse ? stored(k).size() : 1;
  }

  std::memcpy(h.magic, kMappedMagic, sizeof h.magic);
  h.version = kMappedVersion;
  h.store_kind = static_cast<std::uint32_t>(sparse ? MappedStoreKind::Sparse
                                                   : MappedStoreKind::Raw);
  h.flags = meta.include_trivial ? kMappedFlagIncludeTrivial : 0;
  h.shard_count = 1;
  h.n_bits = n_bits;
  h.words_per_key = wp;
  h.reference_trees = meta.reference_trees;
  h.unique_keys = r.live_keys;
  h.total_count = r.total_count;
  h.total_weight = r.total_weight = total_weight;
  r.ctrl_offset = align_up(sizeof h + sizeof r);
  r.slots_offset = align_up(r.ctrl_offset + r.slot_count);
  r.keys_offset = align_up(r.slots_offset + r.slot_count * sizeof(slots[0]));
  h.file_bytes = r.keys_offset + r.key_bytes;

  // The sections are zero-padded up to their aligned offsets. Writes go
  // through the stream's buffer: the key arena arrives a key at a time.
  util::AtomicFile file(path);
  std::ofstream& out = file.stream();
  const auto write = [&](const void* p, std::size_t n) {
    if (!out.write(static_cast<const char*>(p),
                   static_cast<std::streamsize>(n))) {
      throw Error("write failed for '" + path + "'");
    }
  };
  const auto pad_to = [&](std::uint64_t off) {
    static constexpr char kZeros[kMappedSectionAlign] = {};
    const auto at = static_cast<std::uint64_t>(out.tellp());
    BFHRF_ASSERT(off >= at && off - at <= kMappedSectionAlign);
    write(kZeros, static_cast<std::size_t>(off - at));
  };
  write(&h, sizeof h);
  write(&r, sizeof r);
  pad_to(r.ctrl_offset);
  write(ctrl.data(), r.slot_count);
  pad_to(r.slots_offset);
  write(slots.data(), r.slot_count * sizeof(slots[0]));
  pad_to(r.keys_offset);
  for (const KeyRef& k : order) {  // straight from the shards' arenas
    const std::span<const std::byte> key = stored(k);
    write(key.data(), key.size());
  }
  BFHRF_ASSERT(static_cast<std::uint64_t>(out.tellp()) == h.file_bytes);
  file.commit();
  g_writes.inc();
}

MappedIndex::MappedIndex(const std::string& path) {
  const obs::ScopedTimer timer(g_load_seconds);
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw_io("cannot open index file", path);
  }
  struct stat st{};
  const bool stat_ok = ::fstat(fd, &st) == 0;
  const std::size_t size = stat_ok ? static_cast<std::size_t>(st.st_size) : 0;
  void* p = MAP_FAILED;
  if (size >= sizeof(MappedHeader)) {
    p = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  }
  const int err = errno;
  ::close(fd);  // the mapping holds its own reference to the file
  errno = err;
  if (!stat_ok) {
    throw_io("cannot stat index file", path);
  }
  require(size >= sizeof(MappedHeader), path, "file shorter than header");
  if (p == MAP_FAILED) {
    throw_io("cannot mmap index file", path);
  }
  base_ = static_cast<const std::uint8_t*>(p);
  size_ = size;
  try {
    validate(path);
  } catch (...) {
    release();
    throw;
  }
  g_mmap_loads.inc();
  g_mmap_bytes.set(static_cast<double>(size_));
}

void MappedIndex::validate(const std::string& path) const {
  const MappedHeader& h = header();
  require(std::memcmp(h.magic, kMappedMagic, sizeof kMappedMagic) == 0, path,
          "bad magic (not a mapped BFHRF index)");
  require(h.version != 1, path,
          "format version 1 placed keys by an older fingerprint (every "
          "table layout moved in version 2); rebuild the index from its "
          "reference trees");
  require(h.version == kMappedVersion, path, "unsupported format version");
  require(h.store_kind != 1, path,
          "store kind 1 (compressed keys in 24-byte slots) is a retired "
          "layout; rebuild the index from its reference trees");
  const bool raw =
      h.store_kind == static_cast<std::uint32_t>(MappedStoreKind::Raw);
  require(raw || h.store_kind ==
                     static_cast<std::uint32_t>(MappedStoreKind::Sparse),
          path, "unknown store kind");
  if (h.shard_count != 1) {
    throw ParseError("mapped index '" + path + "': the file holds " +
                     std::to_string(h.shard_count) +
                     " shard tables, a layout that multi-threaded saves "
                     "wrote before an index file became one table; rebuild "
                     "the index from its reference trees");
  }
  require(h.file_bytes == size_, path, "truncated or oversized file");
  require(h.n_bits >= 1 && h.n_bits <= (std::uint64_t{1} << 31), path,
          "implausible taxon count");
  require(h.words_per_key ==
              util::words_for_bits(static_cast<std::size_t>(h.n_bits)),
          path, "words_per_key does not match n_bits");
  constexpr std::uint64_t kRecordEnd =
      sizeof(MappedHeader) + sizeof(MappedTableRecord);
  require(kRecordEnd <= size_, path, "table record out of bounds");
  const auto in_bounds = [&](std::uint64_t off, std::uint64_t len) {
    return off >= kRecordEnd && off <= size_ && len <= size_ - off;
  };
  const MappedTableRecord& r = table();
  require(r.slot_count >= util::kGroupWidth &&
              std::has_single_bit(r.slot_count) && r.slot_count <= size_,
          path, "bad table slot count");
  require(r.ctrl_offset % kMappedSectionAlign == 0 &&
              r.slots_offset % kMappedSectionAlign == 0 &&
              r.keys_offset % kMappedSectionAlign == 0,
          path, "misaligned section offset");
  require(in_bounds(r.ctrl_offset, r.slot_count), path,
          "ctrl section out of bounds");
  require(in_bounds(r.slots_offset,
                    r.slot_count * sizeof(FrequencyHash::Slot)),
          path, "slot section out of bounds");
  require(in_bounds(r.keys_offset, r.key_bytes), path,
          "key section out of bounds");
  require(r.live_keys == h.unique_keys && r.total_count == h.total_count,
          path, "the table's totals do not match the header's");
  require(r.live_keys < r.slot_count, path,
          "no EMPTY slot left for probes to stop at");
  if (raw) {
    // A persisted arena is dense: exactly live_keys keys of words_per_key
    // words.
    require(r.key_bytes % (h.words_per_key * sizeof(std::uint64_t)) == 0 &&
                r.key_bytes / (h.words_per_key * sizeof(std::uint64_t)) ==
                    r.live_keys,
            path, "raw key arena size does not match live keys");
  }

  // One pass over the ctrl and slot sections (the key arena is never
  // read): probes over these bytes terminate and stay inside the arena.
  // A raw key_index counts keys; a sparse one is a byte offset whose
  // encoding the probes bounds-check against the arena's end.
  const std::uint64_t key_limit = raw ? r.live_keys : r.key_bytes;
  const std::uint8_t* ctrl = base_ + r.ctrl_offset;
  const auto* slot =
      reinterpret_cast<const FrequencyHash::Slot*>(base_ + r.slots_offset);
  std::uint64_t full = 0;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < r.slot_count; ++i) {
    const bool is_full = ctrl[i] < util::kCtrlEmpty;
    require(is_full || ctrl[i] == util::kCtrlEmpty, path,
            "ctrl byte is neither EMPTY nor FULL");
    require(is_full == (slot[i].count != 0), path,
            "ctrl byte disagrees with its slot's count");
    if (is_full) {
      require(slot[i].key_index < key_limit, path,
              "slot addresses a key outside the arena");
      ++full;
      total += slot[i].count;
    }
  }
  require(full == r.live_keys, path,
          "FULL ctrl bytes do not match the table's live keys");
  require(total == r.total_count, path,
          "slot counts do not sum to the table's total");
}

void MappedIndex::release() noexcept {
  if (base_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(base_), size_);
  }
  base_ = nullptr;
  size_ = 0;
}

MappedIndex::~MappedIndex() { release(); }

MappedIndex::MappedIndex(MappedIndex&& other) noexcept
    : base_(std::exchange(other.base_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

MappedIndex& MappedIndex::operator=(MappedIndex&& other) noexcept {
  if (this != &other) {
    release();
    base_ = std::exchange(other.base_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

BfhIndexView MappedIndex::view() const {
  const MappedHeader& h = header();
  const MappedTableRecord& r = table();
  return {FrequencyHashView(
              util::GroupDirectoryView(base_ + r.ctrl_offset,
                                       static_cast<std::size_t>(r.slot_count)),
              reinterpret_cast<const FrequencyHash::Slot*>(base_ +
                                                           r.slots_offset),
              {reinterpret_cast<const std::byte*>(base_ + r.keys_offset),
               static_cast<std::size_t>(r.key_bytes)},
              static_cast<std::size_t>(h.n_bits), encoding()),
          static_cast<std::size_t>(h.unique_keys), h.total_count,
          h.total_weight, size_};
}

}  // namespace bfhrf::core
