// SIMD capability layer: compile-time feature gating plus runtime dispatch
// for the vectorized kernels (group-probed hash control bytes, bitset math).
//
// Two layers of control, strongest first:
//  1. BFHRF_DISABLE_SIMD (compile definition, CMake option of the same
//     name): vector intrinsics are not even compiled; everything runs the
//     portable SWAR path. This is the "avx2-off"/portability CI build.
//  2. set_force_level() (process-wide): tests and benches pin a level to
//     compare paths inside one binary. Levels above compiled_level() clamp.
// Absent both, active_level() is the widest level both the binary and the
// CPU support (AVX2 is probed with __builtin_cpu_supports, since the
// baseline build targets plain x86-64 and AVX2 kernels carry per-function
// target attributes).
//
// The 16-byte control-group view (Group16*) implements Swiss-table probing:
// `match(tag)` returns a bitmask of bytes equal to a 7-bit tag and
// `match_empty()` a bitmask of empty (0x80) bytes (util/group_table.hpp).
//
// SWAR exactness contract (relied on by util/group_table.hpp):
//  * match_empty() is EXACT — a pure high-bit extract. A control byte is
//    either EMPTY (0x80) or a full 7-bit tag (0x00..0x7f, high bit clear):
//    in-memory tables never write anything else, and the BFHMAP loader
//    rejects a mapped file holding any other byte, so the high bit alone
//    flags exactly the empty bytes.
//  * match(tag) may report false positives, but ONLY on full bytes: for an
//    empty byte, x = ctrl ^ tag has its high bit set (ctrl = 0x80, tag <=
//    0x7f), so `& ~x` clears its lane no matter what the subtraction's
//    borrow did. A false positive therefore only sends the probe loop to a
//    full slot whose key comparison rejects it — table contents and
//    insertion positions stay byte-identical to the exact vector paths.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string_view>

#if defined(__x86_64__) || defined(_M_X64)
#define BFHRF_SIMD_X86 1
#endif
#if defined(__aarch64__) || defined(_M_ARM64)
#define BFHRF_SIMD_ARM 1
#endif

#if !defined(BFHRF_DISABLE_SIMD)
#if defined(BFHRF_SIMD_X86)
#include <emmintrin.h>
#elif defined(BFHRF_SIMD_ARM)
#include <arm_neon.h>
#endif
#endif

namespace bfhrf::util::simd {

enum class Level : std::uint8_t { Swar = 0, Sse2 = 1, Neon = 2, Avx2 = 3 };

[[nodiscard]] std::string_view level_name(Level level) noexcept;

/// Widest level this binary carries code for.
[[nodiscard]] constexpr Level compiled_level() noexcept {
#if defined(BFHRF_DISABLE_SIMD)
  return Level::Swar;
#elif defined(BFHRF_SIMD_X86)
  // AVX2 kernels use per-function target attributes, so they are always
  // compiled on x86-64 and gated at runtime by cpuid.
  return Level::Avx2;
#elif defined(BFHRF_SIMD_ARM)
  return Level::Neon;
#else
  return Level::Swar;
#endif
}

/// Level in effect for this process (see file comment for the policy).
[[nodiscard]] Level active_level() noexcept;

/// Pin the dispatch level (tests/benches); std::nullopt restores
/// autodetection. Levels the binary/CPU cannot honor are clamped down.
/// Not thread-safe against concurrent kernel calls — call at a quiescent
/// point, as the dispatch-equivalence tests do.
void set_force_level(std::optional<Level> level) noexcept;

/// True when group probing runs a vector (non-SWAR) path.
[[nodiscard]] inline bool vectorized() noexcept {
  return active_level() != Level::Swar;
}

// ---------------------------------------------------------------------------
// 16-byte control-group views.

struct Group16Swar {
  std::uint64_t lo;
  std::uint64_t hi;

  static constexpr std::uint64_t kLsb = 0x0101010101010101ULL;
  static constexpr std::uint64_t kMsb = 0x8080808080808080ULL;

  [[nodiscard]] static Group16Swar load(const std::uint8_t* ctrl) noexcept {
    Group16Swar g;
    std::memcpy(&g.lo, ctrl, 8);
    std::memcpy(&g.hi, ctrl + 8, 8);
    return g;
  }

  /// Compress the per-byte MSBs of one 64-bit half into an 8-bit mask:
  /// `msbs` must carry bits only at positions 8k+7, and the multiply sends
  /// bit 8k+7 to bit 56+k (8k+7 + 7(7-k) = 56+k); all (k, j) product
  /// positions are distinct, so no carries corrupt the result. On a
  /// little-endian host mask bit k corresponds to ctrl byte k, matching
  /// _mm_movemask_epi8; on big-endian the within-half order permutes,
  /// which is still self-consistent (every mask consumer maps bits back
  /// through the same load).
  [[nodiscard]] static std::uint32_t movemask8(std::uint64_t msbs) noexcept {
    return static_cast<std::uint32_t>((msbs * 0x0002040810204081ULL) >> 56);
  }

  /// Bytes possibly equal to `tag` (superset; full bytes only — see the
  /// exactness contract in the file comment).
  [[nodiscard]] std::uint32_t match(std::uint8_t tag) const noexcept {
    const std::uint64_t t = kLsb * tag;
    const std::uint64_t xl = lo ^ t;
    const std::uint64_t xh = hi ^ t;
    return movemask8((xl - kLsb) & ~xl & kMsb) |
           (movemask8((xh - kLsb) & ~xh & kMsb) << 8);
  }

  /// Exact bitmask of empty (0x80) bytes: the per-byte high bit (see the
  /// file comment's contract).
  [[nodiscard]] std::uint32_t match_empty() const noexcept {
    return movemask8(lo & kMsb) | (movemask8(hi & kMsb) << 8);
  }
};

#if !defined(BFHRF_DISABLE_SIMD) && defined(BFHRF_SIMD_X86)

struct Group16Sse2 {
  __m128i v;

  /// `ctrl` must be 16-byte aligned (the control directory is cache-line
  /// aligned and groups are 16 bytes wide).
  [[nodiscard]] static Group16Sse2 load(const std::uint8_t* ctrl) noexcept {
    return {_mm_load_si128(reinterpret_cast<const __m128i*>(ctrl))};
  }

  [[nodiscard]] std::uint32_t match(std::uint8_t tag) const noexcept {
    const __m128i t = _mm_set1_epi8(static_cast<char>(tag));
    return static_cast<std::uint32_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(v, t)));
  }

  [[nodiscard]] std::uint32_t match_empty() const noexcept {
    // Full bytes are 0x00..0x7f, so the per-byte sign bit flags exactly
    // the empty (0x80) bytes.
    return static_cast<std::uint32_t>(_mm_movemask_epi8(v));
  }
};

using Group16Vec = Group16Sse2;

#elif !defined(BFHRF_DISABLE_SIMD) && defined(BFHRF_SIMD_ARM)

struct Group16Neon {
  uint8x16_t v;

  [[nodiscard]] static Group16Neon load(const std::uint8_t* ctrl) noexcept {
    return {vld1q_u8(ctrl)};
  }

  /// NEON has no movemask; compress the two 64-bit halves of the 0x00/0xff
  /// byte-compare result with the same multiply trick SWAR uses.
  [[nodiscard]] static std::uint32_t compress(uint8x16_t eq) noexcept {
    const std::uint64_t lo = vgetq_lane_u64(vreinterpretq_u64_u8(eq), 0);
    const std::uint64_t hi = vgetq_lane_u64(vreinterpretq_u64_u8(eq), 1);
    return Group16Swar::movemask8(lo & Group16Swar::kMsb) |
           (Group16Swar::movemask8(hi & Group16Swar::kMsb) << 8);
  }

  [[nodiscard]] std::uint32_t match(std::uint8_t tag) const noexcept {
    return compress(vceqq_u8(v, vdupq_n_u8(tag)));
  }

  [[nodiscard]] std::uint32_t match_empty() const noexcept {
    return compress(v);  // the sign bit flags exactly the empty (0x80) bytes
  }
};

using Group16Vec = Group16Neon;

#else

// No vector unit compiled in: the "vector" path aliases SWAR so dispatch
// code compiles unchanged.
using Group16Vec = Group16Swar;

#endif

}  // namespace bfhrf::util::simd
