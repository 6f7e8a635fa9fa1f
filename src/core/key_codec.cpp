#include "core/key_codec.hpp"

#include <bit>

#include "util/error.hpp"

namespace bfhrf::core {

namespace {

/// put_varint into a buffer known to have room; returns the next byte.
std::byte* put_varint_to(std::uint64_t v, std::byte* p) noexcept {
  while (v >= 0x80) {
    *p++ = static_cast<std::byte>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<std::byte>(v);
  return p;
}

}  // namespace

void put_varint(std::uint64_t v, std::vector<std::byte>& out) {
  std::byte buf[10];  // a 64-bit value takes at most 10 varint bytes
  out.insert(out.end(), buf, put_varint_to(v, buf));
}

std::uint64_t get_varint(ByteSpan bytes, std::size_t& pos) {
  std::uint64_t v = 0;
  unsigned shift = 0;
  while (true) {
    if (pos >= bytes.size()) {
      throw ParseError("truncated varint");
    }
    if (shift >= 64) {
      throw ParseError("over-long varint");
    }
    const auto b = static_cast<std::uint8_t>(bytes[pos++]);
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      return v;
    }
    shift += 7;
  }
}

SparseKeyCodec::SparseKeyCodec(std::size_t n_bits) : n_bits_(n_bits) {
  if (n_bits == 0) {
    throw InvalidArgument("SparseKeyCodec: empty universe");
  }
}

std::size_t SparseKeyCodec::encode_to(util::ConstWordSpan key,
                                      std::byte* out) const {
  BFHRF_ASSERT(key.size() == util::words_for_bits(n_bits_));
  std::byte* p = out;
  const std::size_t ones = util::popcount_words(key);
  const bool store_zeros = ones > n_bits_ / 2;
  *p++ = static_cast<std::byte>(store_zeros ? 1 : 0);
  p = put_varint_to(store_zeros ? n_bits_ - ones : ones, p);

  std::uint64_t prev = 0;
  bool first = true;
  for (std::size_t w = 0; w < key.size(); ++w) {
    // Visit stored-side bits word at a time.
    std::uint64_t word = store_zeros ? ~key[w] : key[w];
    if (store_zeros && w + 1 == key.size() && (n_bits_ & 63) != 0) {
      word &= (std::uint64_t{1} << (n_bits_ & 63)) - 1;  // mask tail bits
    }
    while (word != 0) {
      const auto bit =
          w * 64 + static_cast<std::size_t>(std::countr_zero(word));
      word &= word - 1;
      // The first index as is, then gap-1 coding.
      p = put_varint_to(first ? bit : bit - prev - 1, p);
      first = false;
      prev = bit;
    }
  }
  return static_cast<std::size_t>(p - out);
}

std::size_t SparseKeyCodec::encode(util::ConstWordSpan key,
                                   std::vector<std::byte>& out) const {
  const std::size_t before = out.size();
  out.resize(before + max_encoded_size());
  const std::size_t len = encode_to(key, out.data() + before);
  out.resize(before + len);
  return len;
}

std::size_t SparseKeyCodec::decode(ByteSpan bytes,
                                   util::DynamicBitset& out) const {
  if (out.size() != n_bits_) {
    throw InvalidArgument("SparseKeyCodec::decode: output width mismatch");
  }
  out.clear();
  std::size_t pos = 0;
  if (bytes.empty()) {
    throw ParseError("empty key encoding");
  }
  const auto flag = static_cast<std::uint8_t>(bytes[pos++]);
  if (flag > 1) {
    throw ParseError("bad key flag byte");
  }
  const std::uint64_t k = get_varint(bytes, pos);
  if (k > n_bits_) {
    throw ParseError("key index count exceeds universe");
  }
  std::uint64_t bit = 0;
  for (std::uint64_t i = 0; i < k; ++i) {
    const std::uint64_t delta = get_varint(bytes, pos);
    bit = (i == 0) ? delta : bit + delta + 1;
    if (bit >= n_bits_) {
      throw ParseError("key bit index out of range");
    }
    out.set(static_cast<std::size_t>(bit));
  }
  if (flag == 1) {
    out.flip_all();
  }
  return pos;
}

std::size_t SparseKeyCodec::encoded_size(ByteSpan bytes) const {
  std::size_t pos = 0;
  if (bytes.empty()) {
    throw ParseError("empty key encoding");
  }
  ++pos;  // flag
  const std::uint64_t k = get_varint(bytes, pos);
  if (k > n_bits_) {
    throw ParseError("key index count exceeds universe");
  }
  for (std::uint64_t i = 0; i < k; ++i) {
    (void)get_varint(bytes, pos);
  }
  return pos;
}

std::size_t SparseKeyCodec::max_encoded_size() const noexcept {
  // flag + count varint + (n/2) indices of <= 10 bytes each (worst case).
  return 1 + 10 + (n_bits_ / 2 + 1) * 10;
}

}  // namespace bfhrf::core
