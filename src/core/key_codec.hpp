// SparseKeyCodec — lossless, reversible bipartition key compression
// (paper §IX: "a loss less and reversible compression of the bipartitions
// as keys in the hash to further reduce memory").
//
// Encoding of a canonical n-bit mask:
//   byte 0        : side flag (0 = set bits stored, 1 = clear bits stored)
//   varint        : k, the number of stored indices
//   varint × k    : delta-coded bit indices (first index, then gaps-1)
//
// The smaller side is stored, so a split with side size s costs
// O(s · varint) bytes instead of n/8 — real collections are dominated by
// shallow (small-side) splits, which is where the win comes from
// (measured in bench_ablation_hash, section A4c).
//
// The encoding is canonical: equal bipartitions encode to identical byte
// strings, so hash tables can compare encoded forms directly and stay
// collision-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/bitset.hpp"

namespace bfhrf::core {

using ByteSpan = std::span<const std::byte>;

class SparseKeyCodec {
 public:
  /// `n_bits` is the universe width every key must have.
  explicit SparseKeyCodec(std::size_t n_bits);

  [[nodiscard]] std::size_t n_bits() const noexcept { return n_bits_; }

  /// Write the encoding of `key` (raw canonical words) to `out`, which
  /// must hold max_encoded_size() bytes. Returns the encoding's length.
  std::size_t encode_to(util::ConstWordSpan key, std::byte* out) const;

  /// Append the encoding of `key` to `out`. Returns the bytes appended.
  std::size_t encode(util::ConstWordSpan key,
                     std::vector<std::byte>& out) const;

  /// Decode one key starting at `bytes` into `out` (must be sized n_bits;
  /// it is cleared first). Returns the number of bytes consumed.
  /// Throws ParseError on malformed input.
  std::size_t decode(ByteSpan bytes, util::DynamicBitset& out) const;

  /// Length in bytes of the encoded key starting at `bytes`, without
  /// materializing it. Throws ParseError on malformed input.
  [[nodiscard]] std::size_t encoded_size(ByteSpan bytes) const;

  /// Upper bound on the encoding size of any key in this universe.
  [[nodiscard]] std::size_t max_encoded_size() const noexcept;

 private:
  std::size_t n_bits_;
};

/// LEB128 unsigned varint helpers (exposed for tests).
void put_varint(std::uint64_t v, std::vector<std::byte>& out);
/// Reads a varint at `bytes`; advances `pos`. Throws ParseError if
/// truncated or over-long.
[[nodiscard]] std::uint64_t get_varint(ByteSpan bytes, std::size_t& pos);

}  // namespace bfhrf::core
