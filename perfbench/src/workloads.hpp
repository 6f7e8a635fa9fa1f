// The four workloads and the layer probes their traced runs share.
//
// Every workload follows one shape: set up K times (median = setup_s),
// then repeat its unit of work for the measurement window (median rate =
// ops_per_s), verifying every answer. A traced run additionally profiles
// every layer on the workload's own corpus (layers.cpp) and then replaces
// the numbers of the layers the workload drives with its main-path ones.
#pragma once

#include <array>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/bfhrf.hpp"
#include "core/snapshot.hpp"
#include "harness.hpp"
#include "phylo/bipartition.hpp"
#include "phylo/taxon_set.hpp"
#include "serve/server.hpp"

namespace perfbench {

/// Set-up repetitions per run: untimed warm-ups (the first builds run
/// slower while the heap and the vCPUs warm up), then timed ones until the
/// undisturbed ones (kMaxStealShare) reach both a count and a total time,
/// or the timed ones run for kSetupMaxS.
inline constexpr int kWarmupReps = 2;
inline constexpr std::size_t kSetupReps = 7;
inline constexpr double kSetupMinS = 3.5;
inline constexpr double kSetupMaxS = 8.0;

/// A measurement window stops once its undisturbed time reaches `seconds`,
/// or at this multiple of `seconds` in all. Steal episodes on the measured
/// host lasted from seconds to minutes; a short one is waited out, and in a
/// long one least_disturbed() keeps the passes it stole least from. The
/// cap bounds a run's time when the host stays oversubscribed.
inline constexpr double kMaxWindowFactor = 2.0;

/// Repeat one set-up (`fn` returns its seconds) per the rule above and
/// return the durations setup_s is the median of.
template <typename Fn>
[[nodiscard]] std::vector<double> repeat_setup(Fn&& fn) {
  for (int rep = 0; rep < kWarmupReps; ++rep) {
    (void)fn();
  }
  std::vector<Sample> all;
  std::size_t clean = 0;
  double clean_s = 0;
  const Clock::time_point start = Clock::now();
  while ((clean < kSetupReps || clean_s < kSetupMinS) &&
         (all.empty() || seconds_since(start) < kSetupMaxS)) {
    const StealMeter steal;
    const double s = fn();
    all.push_back({s, steal.share()});
    if (all.back().steal <= kMaxStealShare) {
      ++clean;
      clean_s += s;
    }
  }
  return least_disturbed(std::move(all));
}

/// What a measurement window kept.
struct Window {
  std::vector<double> rates;         ///< untraced passes' rates
  std::vector<double> traced_rates;  ///< traced passes' rates
  std::size_t passes = 0;
  std::size_t clean_passes = 0;
  double steal_share = 0;  ///< stolen share of the window's CPU time
};

/// Repeat `pass` (one unit of work, returning its rate) until the passes
/// the host left undisturbed add up to `cfg.seconds`, or for
/// kMaxWindowFactor × seconds in all. A traced run traces the first half of
/// that time and not the rest; the two halves give the tracing overhead.
/// Each half keeps its least_disturbed() passes.
template <typename Fn>
[[nodiscard]] Window run_window(const RunConfig& cfg, Fn&& pass) {
  Window w;
  std::vector<Sample> untraced;
  std::vector<Sample> traced_samples;
  double clean_s = 0;
  const StealMeter whole;
  while (untraced.empty() ||
         (clean_s < cfg.seconds &&
          whole.wall_s() < kMaxWindowFactor * cfg.seconds)) {
    const bool traced =
        cfg.trace && clean_s < cfg.seconds / 2 && whole.wall_s() < cfg.seconds;
    Tracer::get().set_enabled(traced);
    const StealMeter steal;
    const double rate = pass();
    const Sample sample{rate, steal.share()};
    const double wall = steal.wall_s();
    Tracer::get().set_enabled(cfg.trace);
    ++w.passes;
    (traced ? traced_samples : untraced).push_back(sample);
    if (sample.steal <= kMaxStealShare) {
      ++w.clean_passes;
      clean_s += wall;
    }
  }
  w.rates = least_disturbed(std::move(untraced));
  w.traced_rates = least_disturbed(std::move(traced_samples));
  w.steal_share = whole.share();
  std::printf("# window: %zu passes, %zu undisturbed, host steal %.1f%%\n",
              w.passes, w.clean_passes, w.steal_share * 100);
  return w;
}

/// One row of the traced run's 1-thread vs N-thread scaling table.
struct ScalingRow {
  std::string what;
  double one = 0;   ///< rate at 1 thread / 1 client
  double many = 0;  ///< rate at N threads / 2 clients
  std::string unit;
  std::size_t many_count = 1;  ///< N (threads or clients)
};
void print_scaling(const std::vector<ScalingRow>& rows);

void run_avgrf(const RunConfig& cfg, Result& res, bool vector_input);
void run_allpairs(const RunConfig& cfg, Result& res);
void run_serve(const RunConfig& cfg, Result& res);

// --- engine helpers ---------------------------------------------------------

/// A tree corpus on disk: Newick text or a .p2v vector corpus.
struct CorpusFile {
  std::string path;
  bool vector = false;
};

/// The namespace a corpus is read against: the .p2v header's labels, or the
/// labels of the first Newick record in file order.
[[nodiscard]] bfhrf::phylo::TaxonSetPtr corpus_taxa(const CorpusFile& f);

/// A Phase-1 build from a streamed corpus file (FileTreeSource or
/// P2vFileSource) with the obs pipeline readings of that build, and the
/// results of the latest query_pass.
struct EngineRun {
  bfhrf::phylo::TaxonSetPtr taxa;
  std::optional<bfhrf::core::Bfhrf> engine;
  double build_s = 0;
  std::vector<double> avg;
  double query_s = 0;
  double consumer_wait_s = 0;   ///< pipeline queue waits during the build
  double producer_stall_s = 0;  ///< pipeline producer stalls during the build
  double pool_idle_s = 0;       ///< thread-pool idle time during the build
};
[[nodiscard]] EngineRun build_engine(const CorpusFile& ref,
                                     std::size_t threads);
void query_pass(EngineRun& run, const CorpusFile& query);

/// The first `count` trees of a corpus, read against `taxa`.
[[nodiscard]] std::vector<bfhrf::phylo::Tree> read_prefix(
    const CorpusFile& f, const bfhrf::phylo::TaxonSetPtr& taxa,
    std::size_t count);

// --- layer probes (traced runs) ---------------------------------------------

/// Which probes profile_layers runs (a workload that drives a layer on its
/// main path measures that layer itself).
struct ProfileScope {
  bool matrix = true;
  bool serve = true;
};

/// Profile every layer on one reference corpus and query file: 1-thread vs
/// N-thread build and query, 1-thread stage replays (read, extract, insert,
/// probe), pipeline waits, hash shape, both tree front ends, the all-pairs
/// kernels on a sample, index save/open, and a short serve session with
/// swaps. Emits the per-layer metrics; appends to `scaling`.
void profile_layers(const CorpusFile& ref, const CorpusFile& query,
                    const RunConfig& cfg, ProfileScope scope, Result& res,
                    std::vector<ScalingRow>& scaling);

/// All-pairs probe: bit_matrix_rf at 1 and N threads over `sets`
/// (core.matrix.* metrics). `tn_s` overrides the N-thread time when the
/// caller measured it over a longer window (0 = measure once here).
void profile_matrix(std::span<const bfhrf::phylo::BipartitionSet> sets,
                    const RunConfig& cfg, double tn_s, Result& res,
                    std::vector<ScalingRow>& scaling);

/// Index save (BFHMAP) and IndexSnapshot::open (core.index.* metrics).
void profile_index(const bfhrf::core::Bfhrf& engine,
                   const bfhrf::phylo::TaxonSetPtr& taxa,
                   const RunConfig& cfg, Result& res);

// --- serving ----------------------------------------------------------------

/// Everything a serve session needs: two index files over one namespace,
/// the snapshot published first (index 0's contents), in-process snapshots
/// opened from each file (the verification reference), and the query pool.
struct ServeInputs {
  bfhrf::phylo::TaxonSetPtr taxa;
  std::array<std::string, 2> index_paths;
  std::shared_ptr<const bfhrf::core::IndexSnapshot> initial;
  std::vector<std::string> queries;
};

/// What one closed-loop window measured.
struct ServeWindow {
  std::vector<double> latency_s;  ///< per request started in the window
  std::vector<double> start_s;    ///< its start, since the window opened
  double window_s = 0;
  double traced_s = 0;            ///< the traced part of the window
  std::vector<double> slot_steal; ///< per rate slot: host steal share
  std::vector<double> publish_s;  ///< publish_file durations
  std::uint64_t checksum = 0;     ///< digest of the expected answers
};

/// Trees per request and the swap period of the serve workload.
inline constexpr std::size_t kServeBatch = 8;
inline constexpr double kSwapPeriodS = 0.25;

/// Start an in-process RfServer (2 workers, ephemeral loopback port) with
/// `inputs.initial` published.
[[nodiscard]] std::unique_ptr<bfhrf::serve::RfServer> start_server(
    const ServeInputs& inputs);

/// Run `clients` closed-loop clients (kServeBatch Newick trees per request)
/// for `seconds` after a short warm-up while a publisher thread alternates
/// the two index files every kSwapPeriodS. Every response is checked
/// against in-process query_newick on the snapshot its version names;
/// mismatches and errors are failures in `res`.
[[nodiscard]] ServeWindow serve_window(const ServeInputs& inputs,
                                       bfhrf::serve::RfServer& server,
                                       std::size_t clients, double seconds,
                                       const RunConfig& cfg, Result& res);

/// Serve-layer metrics of a finished window (server already stopped, so the
/// obs registry holds every worker's observations).
void serve_layer_metrics(const ServeInputs& inputs, const ServeWindow& w,
                         Result& res);

}  // namespace perfbench
