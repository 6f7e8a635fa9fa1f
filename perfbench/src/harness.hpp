// Shared benchmark plumbing: clocks, order statistics, the span tracer that
// wraps calls into the engine's public functions, the result record printed
// as the final JSON line, host identity, and obs-registry readers.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Wall time of one call in seconds.
template <typename Fn>
[[nodiscard]] double time_s(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return seconds_since(start);
}

/// Linear-interpolated quantile q in [0, 1] (0 for an empty sample).
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& values);
/// Rates of equal-sized passes combined as total work over total time.
[[nodiscard]] double harmonic_mean(const std::vector<double>& rates);

/// CPU time the hypervisor gave to other guests while this VM wanted it
/// (the steal column of /proc/stat), summed over CPUs; 0 where unavailable.
[[nodiscard]] double steal_s();

/// A timed interval counts as undisturbed when the host stole at most this
/// share of the CPU time it offered (wall time × CPUs). Steal is the host's
/// oversubscription, not the engine's cost, and on a shared VM it arrives
/// in episodes that can slow a whole run 2–3×.
inline constexpr double kMaxStealShare = 0.05;

/// A timed sample and the share of offered CPU time the host stole during it.
struct Sample {
  double value = 0;
  double steal = 0;
};

/// The fewest samples a median is taken over.
inline constexpr std::size_t kMinCleanSamples = 3;

/// The values a median or rate is taken over: the undisturbed samples
/// (steal share at most kMaxStealShare), or, when fewer than
/// kMinCleanSamples were undisturbed, the least-stolen quarter of them (at
/// least kMinCleanSamples). When a steal episode covers a whole run, counting
/// every sample let that run read up to 2.7× slower than its neighbours.
[[nodiscard]] std::vector<double> least_disturbed(std::vector<Sample> samples);

/// Steal over one interval: construct, do the work, then ask share().
class StealMeter {
 public:
  StealMeter();
  [[nodiscard]] double wall_s() const { return seconds_since(start_); }
  [[nodiscard]] double share() const;  ///< stolen / offered CPU time

 private:
  Clock::time_point start_;
  double steal_at_start_;
};

/// Everything a workload needs from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;    ///< tiny corpora (benchmark self-tests)
  bool corrupt = false;  ///< perturb one expected value (self-test)
  std::string data_dir;  ///< generated corpus; scratch index files
  std::string out_dir;   ///< span files
  std::size_t threads = 1;  ///< engine threads (hardware concurrency)
};

// --- tracing ----------------------------------------------------------------

/// In-memory span recorder. Spans are opened by the benchmark around calls
/// into a layer's public functions; nothing inside the engine is touched.
/// A span's parent is the innermost open span on the same thread unless one
/// is given explicitly (client threads parent onto the workload span).
class Tracer {
 public:
  struct Record {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint32_t thread = 0;
    double start_s = 0;  ///< since tracer construction
    double end_s = 0;
  };

  static Tracer& get();

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  [[nodiscard]] std::uint64_t open(std::string_view name,
                                   std::uint64_t parent);
  void close(std::uint64_t id);
  [[nodiscard]] static std::uint64_t current() noexcept;

  /// Write one JSON object per span (with its self time) to `path`.
  void write(const std::string& path) const;

  /// Print per-name count, total and self seconds (stdout, '#' lines).
  void print_summary() const;

  [[nodiscard]] std::size_t size() const;

 private:
  Tracer();
  [[nodiscard]] std::vector<double> self_times() const;

  std::atomic<bool> enabled_{false};
  Clock::time_point epoch_;
  mutable std::mutex mu_;  ///< guards records_
  std::vector<Record> records_;
};

/// RAII span; a no-op while the tracer is disabled.
class Span {
 public:
  explicit Span(std::string_view name, std::uint64_t parent = 0);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  std::uint64_t id_ = 0;
};

// --- result -----------------------------------------------------------------

/// The benchmark's verdict and metrics, printed as the last stdout line.
class Result {
 public:
  /// Set a metric (a later call with the same name replaces the value).
  void metric(const std::string& name, double value, const std::string& unit);
  void erase(const std::string& name);

  /// Count one verified operation; a false `ok` is a failure and is printed.
  void check(bool ok, const std::string& what);

  /// Count one operation that failed (an error instead of an answer).
  void fail(const std::string& what);

  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  [[nodiscard]] std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t printed_ = 0;
};

/// Shortest round-trip decimal form of a double.
[[nodiscard]] std::string format_double(double v);

/// FNV-1a over raw bytes, chained through `h` (result checksums).
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t bytes,
                                  std::uint64_t h = 0xcbf29ce484222325ULL);

/// One JSON object naming the host and build: hardware threads, compiler,
/// build type, SIMD dispatch level, obs compile state, commit, source digest.
[[nodiscard]] std::string host_json(const std::string& commit,
                                    const std::string& digest);

// --- obs registry readers ---------------------------------------------------

[[nodiscard]] std::uint64_t obs_counter(const bfhrf::obs::Snapshot& snap,
                                        std::string_view name);
[[nodiscard]] const bfhrf::obs::HistogramSnapshot* obs_histogram(
    const bfhrf::obs::Snapshot& snap, std::string_view name);
/// Sum of a histogram's observations (0 if absent).
[[nodiscard]] double obs_hist_sum(const bfhrf::obs::Snapshot& snap,
                                  std::string_view name);
/// Quantile interpolated inside the log-spaced bucket that holds it.
[[nodiscard]] double obs_hist_quantile(const bfhrf::obs::Snapshot& snap,
                                       std::string_view name, double q);

}  // namespace perfbench
