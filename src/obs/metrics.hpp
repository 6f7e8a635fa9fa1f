// Engine-wide observability: metrics registry, RAII timers, trace spans,
// and a JSON exporter.
//
// Design (ISSUE 1 tentpole):
//  * HANDLES, NOT STRINGS, ON THE HOT PATH. counter()/gauge()/histogram()
//    intern a name into the global registry once (locked) and return a
//    cheap index handle. Increments write to a THREAD-LOCAL sink — no
//    atomics, no locks — and are folded into the registry when the thread
//    flushes (scope exit, task completion, thread exit, or snapshot()).
//  * MERGE IS ASSOCIATIVE AND COMMUTATIVE. Counters add, histograms add
//    bucket-wise (sum/count/min/max fold), so per-worker sinks can flush
//    in any order without losing or reordering increments.
//  * HISTOGRAMS use fixed log-spaced buckets: upper edges
//    min·factor^i for i in [0, buckets); values land in the first bucket
//    whose edge is >= v ("le" semantics); larger values go to an implicit
//    overflow bucket.
//  * TRACE SPANS are coarse phase markers (build/query/merge), recorded
//    into a bounded global buffer with a per-thread ordinal; overflow is
//    counted, never blocking.
//  * COMPILE-TIME GATE. With -DBFHRF_OBS=OFF (BFHRF_OBS_ENABLED == 0)
//    every handle method is an empty inline body and the instrumentation
//    compiles to nothing; the API surface stays identical so call sites
//    need no #ifdefs. A runtime kill switch (set_enabled) additionally
//    lets one binary compare instrumented vs uninstrumented runs.
//
// Naming convention: <layer>.<component>.<metric>, lower_snake_case, e.g.
// "core.frequency_hash.probes". See docs/OBSERVABILITY.md for the full
// catalogue.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#ifndef BFHRF_OBS_ENABLED
#define BFHRF_OBS_ENABLED 1
#endif

namespace bfhrf::obs {

/// True when the observability layer is compiled in (-DBFHRF_OBS=ON).
[[nodiscard]] constexpr bool compiled_in() noexcept {
  return BFHRF_OBS_ENABLED != 0;
}

/// Runtime kill switch (default on). Compile-time OFF overrides this.
void set_enabled(bool on) noexcept;
[[nodiscard]] bool enabled() noexcept;

/// Log-spaced histogram bucket layout: finite upper edges
/// min, min·factor, …, min·factor^(buckets-1), plus an overflow bucket.
struct HistogramSpec {
  double min = 1e-6;       ///< first bucket upper edge (> 0)
  double factor = 2.0;     ///< edge ratio (> 1)
  std::size_t buckets = 40;  ///< finite bucket count (clamped to [1, 512])
};

/// The finite upper edges a spec produces (exact repeated multiplication).
[[nodiscard]] std::vector<double> bucket_edges(const HistogramSpec& spec);

namespace detail {
inline constexpr std::uint32_t kInvalidId = 0xffffffffU;
#if BFHRF_OBS_ENABLED
void counter_inc(std::uint32_t id, std::uint64_t n) noexcept;
void gauge_set(std::uint32_t id, double v) noexcept;
void histogram_observe(std::uint32_t id, double v) noexcept;
#endif
}  // namespace detail

/// Monotonic counter handle. Copyable, trivially cheap; default-constructed
/// handles are inert.
class Counter {
 public:
  constexpr Counter() = default;

  void inc(std::uint64_t n = 1) const noexcept {
#if BFHRF_OBS_ENABLED
    if (id_ != detail::kInvalidId && n != 0) {
      detail::counter_inc(id_, n);
    }
#else
    (void)n;
#endif
  }

 private:
  friend Counter counter(std::string_view name);
  explicit constexpr Counter(std::uint32_t id) : id_(id) {}
  std::uint32_t id_ = detail::kInvalidId;
};

/// Last-write-wins gauge (resident bytes, load factors, …). set() takes the
/// registry lock — keep it off per-item hot paths.
class Gauge {
 public:
  constexpr Gauge() = default;

  void set(double v) const noexcept {
#if BFHRF_OBS_ENABLED
    if (id_ != detail::kInvalidId) {
      detail::gauge_set(id_, v);
    }
#else
    (void)v;
#endif
  }

 private:
  friend Gauge gauge(std::string_view name);
  explicit constexpr Gauge(std::uint32_t id) : id_(id) {}
  std::uint32_t id_ = detail::kInvalidId;
};

/// Histogram handle; observe() writes to the thread-local sink.
class Histogram {
 public:
  constexpr Histogram() = default;

  void observe(double v) const noexcept {
#if BFHRF_OBS_ENABLED
    if (id_ != detail::kInvalidId) {
      detail::histogram_observe(id_, v);
    }
#else
    (void)v;
#endif
  }

 private:
  friend Histogram histogram(std::string_view name, HistogramSpec spec);
  explicit constexpr Histogram(std::uint32_t id) : id_(id) {}
  std::uint32_t id_ = detail::kInvalidId;
};

/// Intern `name` in the registry (first call registers; later calls return
/// the same handle). Thread-safe; intended for static-init at call sites.
[[nodiscard]] Counter counter(std::string_view name);
[[nodiscard]] Gauge gauge(std::string_view name);
[[nodiscard]] Histogram histogram(std::string_view name,
                                  HistogramSpec spec = {});

/// RAII wall-clock timer: observes elapsed seconds into a histogram at
/// scope exit. seconds() is monotonic within the scope.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram h) noexcept
      : h_(h)
#if BFHRF_OBS_ENABLED
        ,
        start_(std::chrono::steady_clock::now())
#endif
  {
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() { h_.observe(seconds()); }

  [[nodiscard]] double seconds() const noexcept {
#if BFHRF_OBS_ENABLED
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
#else
    return 0.0;
#endif
  }

 private:
  Histogram h_;
#if BFHRF_OBS_ENABLED
  std::chrono::steady_clock::time_point start_;
#endif
};

/// Lightweight trace span: records (name, start, duration, thread ordinal)
/// into a bounded global buffer at scope exit. Coarse-grained by design —
/// one span per phase, not per item.
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name) noexcept;
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan();

 private:
#if BFHRF_OBS_ENABLED
  std::string_view name_;
  std::chrono::steady_clock::time_point start_;
  bool active_ = false;
#endif
};

/// Merge the calling thread's local sink into the global registry.
void flush_thread() noexcept;

/// RAII flush: merges the current thread's sink into the registry at scope
/// exit. Worker threads get this automatically (thread-exit flush, and
/// parallel_for's lanes flush before the call returns); use it for
/// hand-rolled threads.
class ScopedThreadSink {
 public:
  ScopedThreadSink() = default;
  ScopedThreadSink(const ScopedThreadSink&) = delete;
  ScopedThreadSink& operator=(const ScopedThreadSink&) = delete;
  ~ScopedThreadSink() { flush_thread(); }
};

// --- snapshot & export ------------------------------------------------------

struct HistogramSnapshot {
  std::vector<double> edges;           ///< finite bucket upper bounds
  std::vector<std::uint64_t> buckets;  ///< edges.size()+1; last = overflow
  std::uint64_t count = 0;
  double sum = 0;
  double min = 0;  ///< 0 when count == 0
  double max = 0;
};

struct SpanRecord {
  std::string name;
  std::uint64_t start_ns = 0;  ///< offset from the registry epoch
  std::uint64_t dur_ns = 0;
  std::uint32_t thread = 0;  ///< per-thread ordinal, not an OS id
};

/// A consistent copy of the registry, names sorted for deterministic
/// export. Flushes the calling thread's sink first.
struct Snapshot {
  bool compiled = compiled_in();
  bool enabled = true;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
  std::vector<SpanRecord> spans;
  std::uint64_t spans_dropped = 0;
};

[[nodiscard]] Snapshot snapshot();

/// Look up a single aggregated counter value (0 if unknown). Flushes the
/// calling thread first. Test/diagnostic convenience.
[[nodiscard]] std::uint64_t counter_value(std::string_view name);

/// Look up a gauge's last value (0 if unknown). Test/diagnostic
/// convenience.
[[nodiscard]] double gauge_value(std::string_view name);

/// Zero all aggregated values and drop spans; registrations (names and
/// handles) survive. Pending sinks of OTHER threads are invalidated via an
/// epoch bump — call this only on a quiescent system (tests, bench setup).
void reset() noexcept;

/// Serialize a snapshot as deterministic JSON (keys sorted; times in
/// integer microseconds). The zero-argument overload snapshots first.
void dump(std::ostream& os, const Snapshot& snap);
void dump(std::ostream& os);
[[nodiscard]] std::string dump_string(const Snapshot& snap);
[[nodiscard]] std::string dump_string();

}  // namespace bfhrf::obs
