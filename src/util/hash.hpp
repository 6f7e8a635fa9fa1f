// Hash primitives used throughout bfhrf.
//
// All bipartition keys are sequences of 64-bit words. Two hashes cover
// them:
//
//  * `fingerprint` is the frequency store's one key fingerprint
//    (core/frequency_hash, core/sharded_hash, util/group_table): it picks a
//    key's shard, home group and control tag. It is mix64 over a
//    GF(2)-LINEAR map L of the words:
//
//      L(w) = fold( XOR_i clmul(w[i], C[i]) ),   fold(x) = lo64(x) ^ hi64(x)
//
//    where clmul is the carry-less 64x64 -> 128-bit product and C[i] is a
//    fixed odd-weight constant per word index (fingerprint_constant). The
//    fold turns each product into a product modulo x^64 + 1, so taxon t's
//    column, L of the key holding only bit t, is rotl(C[t/64], t mod 64).
//    Linearity is the point: L(a ^ b) = L(a) ^ L(b), so an extractor folds
//    a clade's L as the XOR of its children's, next to the mask it ORs, and
//    flips it to the complement with one XOR of L(leaf mask) — no key is
//    hashed after extraction (phylo/bipartition.hpp). An odd-weight
//    constant is coprime to x^64 + 1 = (x + 1)^64, so multiplying by it is
//    invertible: keys that differ in only one word never collide. Keys
//    differing in several words can (a linear map has a kernel); the store
//    verifies every full key, so a collision costs a compare, never a
//    wrong count. mix64 is a bijection that spreads L's bits.
//    Two kernels give the same bits: PCLMULQDQ on x86-64 CPUs that have it
//    (run-time cpuid dispatch, like the AVX2 bitset kernels), and a
//    portable one (BFHRF_DISABLE_SIMD builds, other CPUs) that XORs
//    rotated constants a nibble at a time. The engine's build and query run
//    neither kernel per key, since the extractors fold L.
//  * `hash_words` is a serial, seeded word combine. It stays behind
//    SeededWordHash, whose independent members HashRF (core/hashrf) and its
//    collision ablation need, and behind DynamicBitset::hash.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

namespace bfhrf::util {

/// SplitMix64 finalizer; a full-avalanche 64-bit mixer (Steele et al.).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combine an accumulated hash with one more value (boost-style, 64-bit).
[[nodiscard]] constexpr std::uint64_t hash_combine(std::uint64_t seed,
                                                   std::uint64_t v) noexcept {
  return seed ^ (mix64(v) + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

/// Hash a span of 64-bit words. Deterministic across runs and platforms.
[[nodiscard]] constexpr std::uint64_t hash_words(
    std::span<const std::uint64_t> words, std::uint64_t seed = 0) noexcept {
  std::uint64_t h = mix64(seed ^ (0x9e3779b97f4a7c15ULL + words.size()));
  for (std::uint64_t w : words) {
    h = hash_combine(h, w);
  }
  return h;
}

/// A seeded member of a universal-ish hash family over word spans.
/// HashRF uses two independent members (bucket index + short fingerprint);
/// see Sul & Williams 2008 and src/core/hashrf.hpp.
class SeededWordHash {
 public:
  explicit constexpr SeededWordHash(std::uint64_t seed) noexcept
      : seed_(mix64(seed)) {}

  [[nodiscard]] constexpr std::uint64_t operator()(
      std::span<const std::uint64_t> words) const noexcept {
    return hash_words(words, seed_);
  }

 private:
  std::uint64_t seed_;
};

// ---------------------------------------------------------------------------
// The linear key fingerprint (see the file comment).

/// C[i], the multiplier of key word `word`: a fixed pseudo-random word with
/// an odd number of set bits, defined for every word index.
[[nodiscard]] constexpr std::uint64_t fingerprint_constant(
    std::size_t word) noexcept {
  const std::uint64_t c =
      mix64(0x243f6a8885a308d3ULL ^ (static_cast<std::uint64_t>(word) *
                                     0x9e3779b97f4a7c15ULL));
  return (std::popcount(c) & 1) != 0 ? c : c ^ 1;
}

/// C[i] for the first words, precomputed (16,384 taxa); wider universes
/// compute the rest with fingerprint_constant.
inline constexpr std::size_t kFingerprintTableWords = 256;
inline constexpr std::array<std::uint64_t, kFingerprintTableWords>
    kFingerprintConstants = [] {
      std::array<std::uint64_t, kFingerprintTableWords> c{};
      for (std::size_t i = 0; i < c.size(); ++i) {
        c[i] = fingerprint_constant(i);
      }
      return c;
    }();

/// C[i], from the table when it covers `word`.
[[nodiscard]] inline std::uint64_t constant_of(std::size_t word) noexcept {
  return word < kFingerprintTableWords ? kFingerprintConstants[word]
                                       : fingerprint_constant(word);
}

/// L of the key holding taxon `taxon` alone: what a leaf adds to the
/// linear fingerprint of every clade that contains it.
[[nodiscard]] inline std::uint64_t taxon_column(std::size_t taxon) noexcept {
  return std::rotl(constant_of(taxon >> 6), static_cast<int>(taxon & 63));
}

/// The fingerprint of a key whose linear part is `linear`: mix64(L).
[[nodiscard]] constexpr std::uint64_t fingerprint_of_linear(
    std::uint64_t linear) noexcept {
  return mix64(linear);
}

namespace detail {

using LinearKernel = std::uint64_t (*)(std::span<const std::uint64_t>) noexcept;

/// The kernel linear_fingerprint calls: it starts at a resolver that picks
/// the kernel on first use and stores it, so a call costs one predictable
/// indirect jump and no initialization guard.
extern std::atomic<LinearKernel> g_linear_kernel;

}  // namespace detail

/// L(words): the dispatched kernel (PCLMULQDQ when the binary carries it
/// and the CPU has it, else the portable kernel; both give the same bits).
[[nodiscard]] inline std::uint64_t linear_fingerprint(
    std::span<const std::uint64_t> words) noexcept {
  return detail::g_linear_kernel.load()(words);
}

/// The store's key fingerprint: mix64(L(words)).
[[nodiscard]] inline std::uint64_t fingerprint(
    std::span<const std::uint64_t> words) noexcept {
  return fingerprint_of_linear(linear_fingerprint(words));
}

/// The two kernels behind linear_fingerprint, for kernel-equivalence tests
/// and benches.
namespace fingerprint_kernels {

/// Shifts, XORs and a 16-entry table per word; runs everywhere.
[[nodiscard]] std::uint64_t portable(
    std::span<const std::uint64_t> words) noexcept;

/// True when this binary carries the PCLMULQDQ kernel and the CPU runs it.
[[nodiscard]] bool pclmul_available() noexcept;

/// Two carry-less products per 128-bit lane. Call only when
/// pclmul_available().
[[nodiscard]] std::uint64_t pclmul(
    std::span<const std::uint64_t> words) noexcept;

}  // namespace fingerprint_kernels

}  // namespace bfhrf::util
