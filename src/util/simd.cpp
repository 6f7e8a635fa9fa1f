#include "util/simd.hpp"

#include <atomic>

namespace bfhrf::util::simd {
namespace {

// Encodes "no force override" as -1; otherwise the forced Level value.
std::atomic<int> g_forced{-1};

Level detect_level() noexcept {
#if defined(BFHRF_DISABLE_SIMD)
  return Level::Swar;
#elif defined(BFHRF_SIMD_X86)
  return __builtin_cpu_supports("avx2") ? Level::Avx2 : Level::Sse2;
#elif defined(BFHRF_SIMD_ARM)
  return Level::Neon;
#else
  return Level::Swar;
#endif
}

Level detected() noexcept {
  static const Level level = detect_level();
  return level;
}

}  // namespace

std::string_view level_name(Level level) noexcept {
  switch (level) {
    case Level::Swar:
      return "swar";
    case Level::Sse2:
      return "sse2";
    case Level::Neon:
      return "neon";
    case Level::Avx2:
      return "avx2";
  }
  return "unknown";
}

Level active_level() noexcept {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) {
    return static_cast<Level>(forced);
  }
  return detected();
}

void set_force_level(std::optional<Level> level) noexcept {
  if (!level.has_value()) {
    g_forced.store(-1, std::memory_order_relaxed);
    return;
  }
  Level want = *level;
  // Clamp to what the binary and CPU can actually run.
  const Level ceiling = detected();
  if (static_cast<int>(want) > static_cast<int>(ceiling)) {
    want = ceiling;
  }
  // A Neon request on x86 (or Sse2 on ARM) cannot be honored either.
#if defined(BFHRF_SIMD_X86)
  if (want == Level::Neon) {
    want = Level::Sse2;
  }
#elif defined(BFHRF_SIMD_ARM)
  if (want == Level::Sse2 || want == Level::Avx2) {
    want = Level::Neon;
  }
#else
  want = Level::Swar;
#endif
  if (static_cast<int>(want) > static_cast<int>(ceiling)) {
    want = ceiling;
  }
  g_forced.store(static_cast<int>(want), std::memory_order_relaxed);
}

}  // namespace bfhrf::util::simd
