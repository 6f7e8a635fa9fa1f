#include "util/hash.hpp"

#include <algorithm>

#include "util/simd.hpp"

#if defined(BFHRF_SIMD_X86) && !defined(BFHRF_DISABLE_SIMD)
#include <immintrin.h>
#define BFHRF_FINGERPRINT_PCLMUL 1
#endif

namespace bfhrf::util {
namespace fingerprint_kernels {

std::uint64_t portable(std::span<const std::uint64_t> words) noexcept {
  // fold(clmul(w, C)) is the XOR of rotl(C, b) over w's set bits b. Taken
  // a nibble at a time: with t[v] the XOR of rotl(C, j) over v's set bits
  // j, nibble k of w adds rotl(t[nibble], 4k).
  std::uint64_t even = 0;
  std::uint64_t odd = 0;
  for (std::size_t i = 0; i < words.size(); ++i) {
    const std::uint64_t w = words[i];
    if (w == 0) {
      continue;  // the small side of a wide split leaves most words empty
    }
    const std::uint64_t c = constant_of(i);
    std::uint64_t t[16];
    t[0] = 0;
    t[1] = c;
    t[2] = std::rotl(c, 1);
    t[3] = t[1] ^ t[2];
    t[4] = std::rotl(c, 2);
    for (int v = 5; v < 8; ++v) {
      t[v] = t[4] ^ t[v - 4];
    }
    const std::uint64_t c3 = std::rotl(c, 3);
    for (int v = 0; v < 8; ++v) {
      t[8 + v] = t[v] ^ c3;
    }
    for (int k = 0; k < 64; k += 8) {
      even ^= std::rotl(t[(w >> k) & 15], k);
      odd ^= std::rotl(t[(w >> (k + 4)) & 15], k + 4);
    }
  }
  return even ^ odd;
}

#if defined(BFHRF_FINGERPRINT_PCLMUL)

bool pclmul_available() noexcept {
  __builtin_cpu_init();  // may run before the runtime's own cpuid probe
  return __builtin_cpu_supports("pclmul") != 0;
}

// The baseline build targets plain x86-64, so the kernel carries its own
// target attribute and is reached only after pclmul_available().
[[gnu::target("pclmul")]] std::uint64_t pclmul(
    std::span<const std::uint64_t> words) noexcept {
  const std::uint64_t* w = words.data();
  const std::size_t n = words.size();
  const std::size_t tabled = std::min(n, kFingerprintTableWords);
  const std::uint64_t* c = kFingerprintConstants.data();
  __m128i lo = _mm_setzero_si128();
  __m128i hi = _mm_setzero_si128();
  std::size_t i = 0;
  for (; i + 2 <= tabled; i += 2) {
    const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + i));
    const __m128i k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(c + i));
    lo = _mm_xor_si128(lo, _mm_clmulepi64_si128(x, k, 0x00));
    hi = _mm_xor_si128(hi, _mm_clmulepi64_si128(x, k, 0x11));
  }
  for (; i < n; ++i) {
    const __m128i x = _mm_cvtsi64_si128(static_cast<long long>(w[i]));
    const __m128i k = _mm_cvtsi64_si128(static_cast<long long>(constant_of(i)));
    lo = _mm_xor_si128(lo, _mm_clmulepi64_si128(x, k, 0x00));
  }
  const __m128i acc = _mm_xor_si128(lo, hi);
  const auto low = static_cast<std::uint64_t>(_mm_cvtsi128_si64(acc));
  const auto high = static_cast<std::uint64_t>(
      _mm_cvtsi128_si64(_mm_unpackhi_epi64(acc, acc)));
  return low ^ high;
}

#else

bool pclmul_available() noexcept { return false; }

std::uint64_t pclmul(std::span<const std::uint64_t> words) noexcept {
  return portable(words);
}

#endif

}  // namespace fingerprint_kernels

namespace detail {
namespace {

std::uint64_t resolve_linear_kernel(
    std::span<const std::uint64_t> words) noexcept {
  const LinearKernel kernel = fingerprint_kernels::pclmul_available()
                                  ? &fingerprint_kernels::pclmul
                                  : &fingerprint_kernels::portable;
  g_linear_kernel.store(kernel);
  return kernel(words);
}

}  // namespace

// Constant-initialized, so a fingerprint taken during another translation
// unit's static initialization still resolves.
std::atomic<LinearKernel> g_linear_kernel{&resolve_linear_kernel};

}  // namespace detail

}  // namespace bfhrf::util
