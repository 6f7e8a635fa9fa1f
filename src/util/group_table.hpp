// GroupDirectory: Swiss-table-style control-byte directory for the
// open-addressed hash tables (core/frequency_hash, branch_score).
//
// Layout: one byte per slot, 0x80 = empty, 0x00..0x7f = the 7-bit tag of
// the occupant's fingerprint. Bytes are probed 16 at a time ("groups")
// with a single vector compare (SSE2/NEON) or two 64-bit SWAR words. The
// directory is cache-line aligned, so a group load is one aligned 16-byte
// read inside one line, and four consecutive groups share a line.
//
// Fingerprint split: the 64-bit key fingerprint fp (util::fingerprint:
// mix64 over a linear map of the key words, util/hash.hpp) provides the low
// 7 bits as the control tag and the remaining 57 bits as the slot hash
// (home-group index). Using disjoint bits keeps the tag uncorrelated with
// the group choice, so a group's 16 tags behave like independent 7-bit
// samples and a probe's false-candidate rate is ~16/128. The directory
// never hashes: callers hand it fp, most of them straight from the
// extractor that folded it.
// (The sharded store routes on the TOP fingerprint bits — see
// core/sharded_hash.hpp — which are disjoint from both of these, so a
// per-shard directory behaves exactly like a standalone one.)
//
// Probing: start at the home group, scan tag matches (caller verifies the
// full key), and stop at the first group containing an EMPTY byte. Tables
// are add-only, so an empty byte proves the key was never displaced past
// it, and when the key is absent that group's first empty byte is the
// insertion point. Group stride is linear, so the displacement chain is
// contiguous memory.
//
// The SWAR path may surface false tag candidates on occupied bytes (never
// on empty ones — see util/simd.hpp); callers' full-key verification
// rejects them, and the empty mask is exact on every path, so table
// contents are byte-identical across dispatch levels.
//
// The read path is split out as GroupDirectoryView: a non-owning (ctrl
// pointer, slot count) pair carrying every const probing primitive.
// GroupDirectory owns the bytes and delegates probing to its view; a
// mapped on-disk index (core/index_file.hpp) builds views directly over
// the mmapped control sections, so cold-loaded and in-memory tables run
// the exact same probe code. Because the vectorized path issues ALIGNED
// 16-byte loads, any memory a view covers must be at least 16-byte
// aligned; the on-disk format 64-byte-aligns every section and the loader
// rejects files that violate it, or that hold any ctrl byte other than
// EMPTY or a tag.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <utility>

#include "util/memory.hpp"
#include "util/simd.hpp"

namespace bfhrf::util {

inline constexpr std::size_t kGroupWidth = 16;
inline constexpr std::uint8_t kCtrlEmpty = 0x80;

/// Low 7 bits of the fingerprint: the control tag.
[[nodiscard]] constexpr std::uint8_t ctrl_tag(std::uint64_t fp) noexcept {
  return static_cast<std::uint8_t>(fp & 0x7f);
}

/// Remaining 57 bits: the slot hash that picks the home group.
[[nodiscard]] constexpr std::uint64_t slot_hash(std::uint64_t fp) noexcept {
  return fp >> 7;
}

/// Non-owning read-only view over a control-byte directory. All probing
/// primitives live here; GroupDirectory (below) owns storage and
/// delegates, and mapped index shards construct views straight over the
/// file bytes. The viewed memory must be 16-byte aligned (vector loads)
/// and `slot_count` must be a power of two multiple of kGroupWidth.
class GroupDirectoryView {
 public:
  struct FindResult {
    std::size_t index;   ///< matching slot, or the insertion point (the
                         ///< first empty slot of the probe's last group)
    bool found;          ///< true when the caller's key predicate matched
    std::uint32_t groups_probed;  ///< control groups inspected (>= 1)
  };

  /// A home group's precomputed tag/empty masks — the first iteration of a
  /// probe, hoisted so pipelined lookups inspect each group exactly once.
  /// Only valid while the directory is unmodified: an insert between
  /// inspect() and find_hinted() can occupy a slot the hint still reports
  /// empty, so only read-only batches may run hints ahead of the resolve.
  struct GroupHint {
    std::uint32_t match_mask;  ///< bytes (possibly) equal to fp's tag
    std::uint32_t empty_mask;  ///< empty bytes (exact on every path)
  };

  GroupDirectoryView() = default;
  GroupDirectoryView(const std::uint8_t* ctrl, std::size_t slot_count) noexcept
      : ctrl_(ctrl), size_(slot_count) {}

  [[nodiscard]] std::size_t slot_count() const noexcept { return size_; }
  [[nodiscard]] std::size_t group_count() const noexcept {
    return size_ / kGroupWidth;
  }
  [[nodiscard]] const std::uint8_t* data() const noexcept { return ctrl_; }
  [[nodiscard]] bool occupied(std::size_t index) const noexcept {
    return ctrl_[index] < kCtrlEmpty;
  }

  [[nodiscard]] std::size_t home_group(std::uint64_t fp) const noexcept {
    return static_cast<std::size_t>(slot_hash(fp)) & (group_count() - 1);
  }

  /// Prefetch the home control group of `fp` (one cache line).
  void prefetch(std::uint64_t fp) const noexcept {
    __builtin_prefetch(ctrl_ + home_group(fp) * kGroupWidth);
  }

  /// Find the slot whose occupant satisfies `eq` among slots tagged with
  /// fp's tag, or the insertion point (the first empty slot of the group
  /// that ends the probe) if none does. `eq(slot_index)` is only called on
  /// occupied slots. Statically dispatched variant for hot loops that hoist
  /// the level check.
  template <typename Group, typename Eq>
  [[nodiscard]] FindResult find_with(std::uint64_t fp,
                                     Eq&& eq) const noexcept {
    return find_hinted<Group>(fp, inspect<Group>(fp), std::forward<Eq>(eq));
  }

  /// Inspect fp's home group once: the stage the batched lookup pipelines
  /// run a few keys ahead of the resolve.
  template <typename Group>
  [[nodiscard]] GroupHint inspect(std::uint64_t fp) const noexcept {
    const Group group = Group::load(ctrl_ + home_group(fp) * kGroupWidth);
    return {group.match(ctrl_tag(fp)), group.match_empty()};
  }

  /// find_with() resuming from a precomputed home-group hint, so the common
  /// home-group hit touches no control memory at resolve time. The hint
  /// must postdate the directory's last modification (see GroupHint).
  template <typename Group, typename Eq>
  [[nodiscard]] FindResult find_hinted(std::uint64_t fp, GroupHint hint,
                                       Eq&& eq) const noexcept {
    const std::size_t gmask = group_count() - 1;
    std::size_t g = static_cast<std::size_t>(slot_hash(fp)) & gmask;
    std::uint32_t m = hint.match_mask;
    std::uint32_t empty = hint.empty_mask;
    std::uint32_t probed = 1;
    while (true) {
      while (m != 0) {
        const std::size_t idx =
            g * kGroupWidth + static_cast<std::size_t>(std::countr_zero(m));
        if (eq(idx)) {
          return {idx, true, probed};
        }
        m &= m - 1;
      }
      if (empty != 0) {
        return {g * kGroupWidth +
                    static_cast<std::size_t>(std::countr_zero(empty)),
                false, probed};
      }
      g = (g + 1) & gmask;
      ++probed;
      const Group group = Group::load(ctrl_ + g * kGroupWidth);
      m = group.match(ctrl_tag(fp));
      empty = group.match_empty();
    }
  }

  /// Runtime-dispatched find (single-key paths).
  template <typename Eq>
  [[nodiscard]] FindResult find(std::uint64_t fp, Eq&& eq) const noexcept {
    if (simd::vectorized()) {
      return find_with<simd::Group16Vec>(fp, std::forward<Eq>(eq));
    }
    return find_with<simd::Group16Swar>(fp, std::forward<Eq>(eq));
  }

  /// Insertion point for a key known to be absent (rehash loops).
  [[nodiscard]] FindResult find_insert(std::uint64_t fp) const noexcept {
    return find(fp, [](std::size_t) { return false; });
  }

  /// First tag-matching slot in fp's home group, or slot_count() if none.
  /// A prefetch hint for batched lookups: it resolves the likely key-arena
  /// line without walking the displacement chain (SWAR false positives just
  /// prefetch a harmless line).
  template <typename Group>
  [[nodiscard]] std::size_t first_candidate(std::uint64_t fp) const noexcept {
    const std::size_t g = home_group(fp);
    const Group group = Group::load(ctrl_ + g * kGroupWidth);
    const std::uint32_t m = group.match(ctrl_tag(fp));
    if (m == 0) {
      return size_;
    }
    return g * kGroupWidth + static_cast<std::size_t>(std::countr_zero(m));
  }

 private:
  const std::uint8_t* ctrl_ = nullptr;
  std::size_t size_ = 0;
};

class GroupDirectory {
 public:
  using FindResult = GroupDirectoryView::FindResult;
  using GroupHint = GroupDirectoryView::GroupHint;

  GroupDirectory() = default;

  /// Reset to `slot_count` empty slots. `slot_count` must be a power of
  /// two and at least kGroupWidth.
  void reset(std::size_t slot_count) { ctrl_.assign(slot_count, kCtrlEmpty); }

  /// Non-owning probing view over the current bytes. Invalidated by
  /// reset (reallocation), like any container reference.
  [[nodiscard]] GroupDirectoryView view() const noexcept {
    return {ctrl_.data(), ctrl_.size()};
  }

  [[nodiscard]] std::size_t slot_count() const noexcept {
    return ctrl_.size();
  }
  [[nodiscard]] std::size_t group_count() const noexcept {
    return ctrl_.size() / kGroupWidth;
  }
  [[nodiscard]] bool occupied(std::size_t index) const noexcept {
    return ctrl_[index] < kCtrlEmpty;
  }

  /// The raw control bytes (tests / layout-equivalence oracles).
  [[nodiscard]] std::span<const std::uint8_t> ctrl_bytes() const noexcept {
    return {ctrl_.data(), ctrl_.size()};
  }

  /// Record `fp`'s tag at a slot returned by a failed find().
  void mark(std::size_t index, std::uint64_t fp) noexcept {
    ctrl_[index] = ctrl_tag(fp);
  }

  [[nodiscard]] std::size_t home_group(std::uint64_t fp) const noexcept {
    return view().home_group(fp);
  }

  /// Prefetch the home control group of `fp` (one cache line).
  void prefetch(std::uint64_t fp) const noexcept { view().prefetch(fp); }

  template <typename Group, typename Eq>
  [[nodiscard]] FindResult find_with(std::uint64_t fp,
                                     Eq&& eq) const noexcept {
    return view().find_with<Group>(fp, std::forward<Eq>(eq));
  }

  template <typename Group>
  [[nodiscard]] GroupHint inspect(std::uint64_t fp) const noexcept {
    return view().inspect<Group>(fp);
  }

  template <typename Group, typename Eq>
  [[nodiscard]] FindResult find_hinted(std::uint64_t fp, GroupHint hint,
                                       Eq&& eq) const noexcept {
    return view().find_hinted<Group>(fp, hint, std::forward<Eq>(eq));
  }

  /// Runtime-dispatched find (single-key paths).
  template <typename Eq>
  [[nodiscard]] FindResult find(std::uint64_t fp, Eq&& eq) const noexcept {
    return view().find(fp, std::forward<Eq>(eq));
  }

  /// Insertion point for a key known to be absent (rehash loops).
  [[nodiscard]] FindResult find_insert(std::uint64_t fp) const noexcept {
    return view().find_insert(fp);
  }

  template <typename Group>
  [[nodiscard]] std::size_t first_candidate(std::uint64_t fp) const noexcept {
    return view().first_candidate<Group>(fp);
  }

  /// Bytes held by the control directory, rounded up to whole cache lines
  /// (the aligned allocator hands out whole lines).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    const std::size_t cap = ctrl_.capacity();
    return (cap + kCacheLineBytes - 1) / kCacheLineBytes * kCacheLineBytes;
  }

 private:
  CacheAlignedVector<std::uint8_t> ctrl_;
};

}  // namespace bfhrf::util
