#include "core/index_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "obs/metrics.hpp"
#include "util/bitset.hpp"
#include "util/error.hpp"

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

/// Position-tracking binary writer with zero-padding up to aligned offsets.
/// Writes go to a fresh temp file beside `path`; commit() fsyncs it,
/// renames it over `path` and fsyncs the directory, so readers see either
/// the old file or the complete new one. Destroying an uncommitted writer
/// removes the temp file.
class FileWriter {
 public:
  explicit FileWriter(const std::string& path) : path_(path) {
    // O_EXCL on a pid + counter name: unique like mkstemp, but created
    // with the usual 0666 & ~umask permissions.
    static std::atomic<std::uint64_t> serial{0};
    do {
      tmp_ = path + ".tmp." + std::to_string(::getpid()) + "." +
             std::to_string(serial.fetch_add(1));
      fd_ = ::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                   0666);
    } while (fd_ < 0 && errno == EEXIST);
    if (fd_ < 0) {
      throw_io("cannot create", tmp_);
    }
  }
  FileWriter(const FileWriter&) = delete;
  FileWriter& operator=(const FileWriter&) = delete;
  ~FileWriter() {
    if (fd_ >= 0) {
      ::close(fd_);
      ::unlink(tmp_.c_str());
    }
  }

  void write(const void* p, std::size_t n) {
    const auto* bytes = static_cast<const char*>(p);
    for (std::size_t done = 0; done < n;) {
      const ::ssize_t w = ::write(fd_, bytes + done, n - done);
      if (w < 0) {
        if (errno == EINTR) {
          continue;
        }
        throw_io("write failed for", tmp_);
      }
      done += static_cast<std::size_t>(w);
    }
    pos_ += n;
  }

  void pad_to(std::uint64_t off) {
    BFHRF_ASSERT(off >= pos_ && off - pos_ <= kMappedSectionAlign);
    static constexpr char kZeros[kMappedSectionAlign] = {};
    write(kZeros, static_cast<std::size_t>(off - pos_));
  }

  [[nodiscard]] std::uint64_t pos() const noexcept { return pos_; }

  void commit() {
    if (::fsync(fd_) != 0) {
      throw_io("fsync failed for", tmp_);
    }
    if (::rename(tmp_.c_str(), path_.c_str()) != 0) {
      throw_io("cannot rename temp file over", path_);
    }
    ::close(fd_);
    fd_ = -1;
    // Make the rename itself durable.
    const std::string dir =
        std::filesystem::path(path_).parent_path().string();
    const int dfd =
        ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd < 0) {
      throw_io("cannot open directory of", path_);
    }
    const int rc = ::fsync(dfd);
    ::close(dfd);
    if (rc != 0) {
      throw_io("fsync failed for the directory of", path_);
    }
  }

 private:
  std::string path_;
  std::string tmp_;
  int fd_ = -1;
  std::uint64_t pos_ = 0;
};

}  // namespace

void write_index_file(const ShardedFrequencyHash& tables, double total_weight,
                      const IndexFileMeta& meta, const std::string& path) {
  if (std::endian::native != std::endian::little) {
    throw Error("the mapped index format is little-endian only");
  }

  const std::size_t shard_count = tables.shard_count();
  const FrequencyHash& first = tables.shard(0);
  const std::size_t wp = first.words_per_key();
  const bool sparse = first.encoding() == KeyEncoding::Sparse;

  MappedHeader h{};
  std::memcpy(h.magic, kMappedMagic, sizeof h.magic);
  h.version = kMappedVersion;
  h.store_kind = static_cast<std::uint32_t>(sparse ? MappedStoreKind::Sparse
                                                   : MappedStoreKind::Raw);
  h.flags = meta.include_trivial ? kMappedFlagIncludeTrivial : 0;
  h.shard_count = static_cast<std::uint32_t>(shard_count);
  h.n_bits = first.n_bits();
  h.words_per_key = wp;
  h.reference_trees = meta.reference_trees;
  h.total_weight = total_weight;

  std::vector<MappedShardRecord> records(shard_count);
  std::uint64_t off =
      sizeof(MappedHeader) + shard_count * sizeof(MappedShardRecord);
  for (std::size_t s = 0; s < shard_count; ++s) {
    MappedShardRecord& r = records[s];
    const FrequencyHash& fh = tables.shard(s);
    // An add-only raw table's arena is dense: exactly one key per live
    // slot.
    BFHRF_ASSERT(sparse || fh.arena().size() ==
                               fh.unique_count() * wp * sizeof(std::uint64_t));
    r.slot_count = fh.capacity_slots();
    r.key_bytes = fh.arena().size();
    r.live_keys = fh.unique_count();
    r.total_count = fh.total_count();
    r.total_weight = s == 0 ? total_weight : 0.0;
    h.unique_keys += r.live_keys;
    h.total_count += r.total_count;
    off = align_up(off);
    r.ctrl_offset = off;
    off += r.slot_count;
    off = align_up(off);
    r.slots_offset = off;
    off += r.slot_count * sizeof(FrequencyHash::Slot);
    off = align_up(off);
    r.keys_offset = off;
    off += r.key_bytes;
  }
  h.file_bytes = off;

  FileWriter w(path);
  w.write(&h, sizeof h);
  w.write(records.data(), shard_count * sizeof(MappedShardRecord));
  for (std::size_t s = 0; s < shard_count; ++s) {
    const MappedShardRecord& r = records[s];
    const FrequencyHash& fh = tables.shard(s);
    w.pad_to(r.ctrl_offset);
    const std::span<const std::uint8_t> ctrl = fh.directory().ctrl_bytes();
    w.write(ctrl.data(), ctrl.size());
    w.pad_to(r.slots_offset);
    const std::span<const FrequencyHash::Slot> slots = fh.slots();
    w.write(slots.data(), slots.size() * sizeof(FrequencyHash::Slot));
    w.pad_to(r.keys_offset);
    const std::span<const std::byte> arena = fh.arena();
    w.write(arena.data(), arena.size());
  }
  BFHRF_ASSERT(w.pos() == h.file_bytes);
  w.commit();
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
  require(h.shard_count >= 1 &&
              std::has_single_bit(std::uint64_t{h.shard_count}),
          path, "shard count must be a power of two");
  require(h.file_bytes == size_, path, "truncated or oversized file");
  require(h.n_bits >= 1 && h.n_bits <= (std::uint64_t{1} << 31), path,
          "implausible taxon count");
  require(h.words_per_key ==
              util::words_for_bits(static_cast<std::size_t>(h.n_bits)),
          path, "words_per_key does not match n_bits");
  const std::uint64_t records_end =
      sizeof(MappedHeader) +
      std::uint64_t{h.shard_count} * sizeof(MappedShardRecord);
  require(records_end <= size_, path, "shard records out of bounds");
  const auto in_bounds = [&](std::uint64_t off, std::uint64_t len) {
    return off >= records_end && off <= size_ && len <= size_ - off;
  };
  std::uint64_t live = 0;
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < h.shard_count; ++s) {
    const MappedShardRecord& r = shard(s);
    require(r.slot_count >= util::kGroupWidth &&
                std::has_single_bit(r.slot_count) && r.slot_count <= size_,
            path, "bad shard slot count");
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
    require(r.live_keys < r.slot_count, path,
            "no EMPTY slot left for probes to stop at");
    if (raw) {
      // A persisted arena is dense: exactly live_keys keys of
      // words_per_key words.
      require(r.key_bytes % sizeof(std::uint64_t) == 0, path,
              "raw key arena not word-sized");
      const std::uint64_t words = r.key_bytes / sizeof(std::uint64_t);
      require(h.words_per_key != 0 && words % h.words_per_key == 0 &&
                  words / h.words_per_key == r.live_keys,
              path, "raw key arena size does not match live keys");
    }
    validate_slots(s, path);
    live += r.live_keys;
    total += r.total_count;
  }
  require(live == h.unique_keys, path,
          "per-shard live keys do not sum to the header total");
  require(total == h.total_count, path,
          "per-shard frequencies do not sum to the header total");
}

void MappedIndex::validate_slots(std::size_t s,
                                 const std::string& path) const {
  // One pass over the ctrl and slot sections (the key arena is never
  // read): probes over these bytes terminate and stay inside the arena.
  // A raw key_index counts keys; a sparse one is a byte offset whose
  // encoding the probes bounds-check against the arena's end.
  const MappedShardRecord& r = shard(s);
  const std::uint64_t key_limit =
      header().store_kind == static_cast<std::uint32_t>(MappedStoreKind::Raw)
          ? r.live_keys
          : r.key_bytes;
  const std::span<const std::uint8_t> ctrl = this->ctrl(s);
  const FrequencyHash::Slot* slot = slots(s).data();
  std::uint64_t full = 0;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < ctrl.size(); ++i) {
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
          "FULL ctrl bytes do not match the shard's live keys");
  require(total == r.total_count, path,
          "slot counts do not sum to the shard's total");
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
  std::vector<FrequencyHashView> shards;
  std::vector<std::size_t> shard_keys;
  shards.reserve(h.shard_count);
  shard_keys.reserve(h.shard_count);
  for (std::size_t s = 0; s < h.shard_count; ++s) {
    shards.emplace_back(
        util::GroupDirectoryView(ctrl(s).data(),
                                 static_cast<std::size_t>(shard(s).slot_count)),
        slots(s).data(), arena(s), static_cast<std::size_t>(h.n_bits),
        encoding());
    shard_keys.push_back(static_cast<std::size_t>(shard(s).live_keys));
  }
  return {std::move(shards), std::move(shard_keys), h.total_count,
          h.total_weight, size_};
}

}  // namespace bfhrf::core
