// Ablation A10: bit-matrix all-pairs engines vs the legacy merge walk (PR8).
//
// The legacy all-pairs engine intersects two sorted bipartition-key sets
// per cell — O(k) word-compares per pair with no reuse across cells. The
// library no longer ships it, so the bench keeps it as a local baseline
// (merge_walk_rf): the denominator of the gated *_over_legacy_ratio
// baselines below. The bit-matrix engines pay one FrequencyHash pass to
// assign every unique bipartition a dense universe id, then each cell is
// either a fused popcount-AND over two bit-rows (dense) or a sorted-id
// intersection (sparse), scheduled as cache-sized tiles through a
// work-stealing queue (DESIGN.md §7).
//
// Two workloads bracket the density axis the Auto heuristic splits on:
//
//   birthday-heavy — variable-trees-like (n=100, low discordance): most
//     splits recur across trees, the universe is narrow, rows are dense.
//     The regime where popcount words win big.
//   unique-heavy   — insect-like (n=144, near-random trees): most splits
//     are singletons, the universe is ~r·k wide, rows are nearly empty.
//     Dense rows would scan mostly-zero words; sorted id lists keep the
//     work proportional to actual memberships.
//
// Cells measured per workload: legacy@8, dense@8, sparse@8 (+legacy@1 as
// the serial reference on the birthday side). Medians land in
// BENCH_PR8.json via record_baseline for scripts/bench_compare.py. The
// headline gates: dense must hold >= 2x over legacy at 8 threads on the
// birthday-heavy collection, and sparse must hold parity with legacy on
// the unique-heavy one (the matrix there is intersection-starved, so the
// win is bounded — the gate is "the universe pass costs nothing").
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/all_pairs.hpp"
#include "core/bit_matrix.hpp"
#include "parallel/parallel_for.hpp"
#include "phylo/bipartition.hpp"
#include "sim/datasets.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace bfhrf::bench {
namespace {

constexpr std::size_t kThreads = 8;  // paper-style label; timesliced if narrower
constexpr std::size_t kReps = 5;     // odd: the median is a real sample

std::size_t r_trees() {
  switch (scale()) {
    case Scale::Smoke:
      return 48;
    case Scale::Small:
      return 512;
    case Scale::Paper:
      return 4096;
  }
  return 0;
}

struct Workload {
  const char* tag = "";
  sim::Dataset ds;
  core::UniverseStats stats;   ///< from one untimed bit_matrix_rf probe
  std::uint64_t pairs = 0;     ///< r(r-1)/2 matrix cells
};

Workload make_workload(const char* tag, sim::DatasetSpec spec) {
  Workload w;
  w.tag = tag;
  spec.name = std::string("matrix-ablation-") + tag;
  w.ds = sim::generate(spec);
  const std::size_t r = w.ds.trees.size();
  w.pairs = static_cast<std::uint64_t>(r) * (r - 1) / 2;
  // One untimed probe run discovers the universe shape (width, density)
  // for the report and warms the page cache so rep 0 is not an outlier.
  std::vector<phylo::BipartitionSet> sets;
  sets.reserve(r);
  for (const auto& t : w.ds.trees) {
    sets.push_back(phylo::extract_bipartitions(t, {}));
  }
  benchmark::DoNotOptimize(
      core::bit_matrix_rf(sets, {.threads = kThreads}, &w.stats));
  return w;
}

/// Shared splits dominate: low-discordance n=100 trees, narrow universe.
const Workload& birthday() {
  static const Workload w = [] {
    sim::DatasetSpec spec = sim::variable_trees(r_trees());
    spec.moves_per_tree = 4;  // mild discordance: splits recur heavily
    return make_workload("birthday", spec);
  }();
  return w;
}

/// Singleton splits dominate: near-random n=144 trees, wide universe.
const Workload& unique_heavy() {
  static const Workload w = [] {
    sim::DatasetSpec spec = sim::insect_like(r_trees());
    spec.moves_per_tree = 96;  // near-random trees: mostly singleton splits
    return make_workload("unique", spec);
  }();
  return w;
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

struct Timing {
  double seconds = 0;
  double ns_per_pair = 0;
};

/// The legacy engine: every tree's sorted bipartition set extracted once,
/// then the upper triangle filled row-parallel with one sorted-arena merge
/// per pair (a small grain keeps the longer top rows balanced).
core::RfMatrix merge_walk_rf(std::span<const phylo::Tree> trees,
                             std::size_t threads) {
  threads = parallel::effective_threads(threads);
  const std::size_t r = trees.size();
  std::vector<phylo::BipartitionSet> sets(r);
  parallel::parallel_for(
      0, r, threads,
      [&](std::size_t i) { sets[i] = phylo::extract_bipartitions(trees[i]); },
      /*grain=*/8);
  core::RfMatrix matrix(r);
  parallel::parallel_for(
      0, r, threads,
      [&](std::size_t i) {
        for (std::size_t j = i + 1; j < r; ++j) {
          matrix.set(i, j,
                     static_cast<std::uint32_t>(
                         phylo::BipartitionSet::symmetric_difference_size(
                             sets[i], sets[j])));
        }
      },
      /*grain=*/1);
  return matrix;
}

/// Median of kReps runs of `run`, which builds one matrix of `w`.
template <typename Run>
Timing measure(const Workload& w, Run run) {
  std::vector<double> secs;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    util::WallTimer timer;
    const core::RfMatrix m = run();
    secs.push_back(timer.seconds());
    benchmark::DoNotOptimize(m.size());
  }
  const double med = median_of(secs);
  return {med, med * 1e9 / static_cast<double>(w.pairs)};
}

Timing measure_legacy(const Workload& w, std::size_t threads) {
  return measure(w, [&] { return merge_walk_rf(w.ds.trees, threads); });
}

Timing measure_engine(const Workload& w, core::AllPairsEngine engine) {
  return measure(w, [&] {
    return core::all_pairs_rf(w.ds.trees,
                              {.threads = kThreads, .engine = engine});
  });
}

struct WorkloadOutcome {
  Timing legacy_t1;
  Timing legacy_t8;
  Timing dense_t8;
  Timing sparse_t8;
};

struct Outcomes {
  WorkloadOutcome birthday;
  WorkloadOutcome unique;
};

Outcomes& outcomes() {
  static Outcomes o;
  return o;
}

/// Correctness pin: the three engines must agree cell-for-cell before any
/// timing is trusted. Divergence aborts the whole binary.
void pin_engines_agree(const Workload& w) {
  const core::RfMatrix want = merge_walk_rf(w.ds.trees, 1);
  for (const core::AllPairsEngine e : {core::AllPairsEngine::BitDense,
                                       core::AllPairsEngine::BitSparse}) {
    const core::RfMatrix got =
        core::all_pairs_rf(w.ds.trees, {.threads = kThreads, .engine = e});
    for (std::size_t i = 0; i < want.size(); ++i) {
      for (std::size_t j = i + 1; j < want.size(); ++j) {
        if (want.at(i, j) != got.at(i, j)) {
          std::fprintf(stderr,
                       "FATAL: %s engine diverged from legacy on %s at "
                       "(%zu,%zu): %u vs %u\n",
                       e == core::AllPairsEngine::BitDense ? "dense" : "sparse",
                       w.tag, i, j, got.at(i, j), want.at(i, j));
          std::exit(1);
        }
      }
    }
  }
}

void run_all_measurements() {
  static bool done = false;
  if (done) {
    return;
  }
  done = true;
  pin_engines_agree(birthday());
  pin_engines_agree(unique_heavy());

  const auto run_workload = [](const Workload& w) {
    WorkloadOutcome o;
    o.legacy_t1 = measure_legacy(w, 1);
    o.legacy_t8 = measure_legacy(w, kThreads);
    o.dense_t8 = measure_engine(w, core::AllPairsEngine::BitDense);
    o.sparse_t8 = measure_engine(w, core::AllPairsEngine::BitSparse);
    return o;
  };
  outcomes().birthday = run_workload(birthday());
  outcomes().unique = run_workload(unique_heavy());
}

void run_variant(benchmark::State& state, const WorkloadOutcome& wo,
                 const char* which) {
  for (auto _ : state) {
    run_all_measurements();
  }
  const std::string name(which);
  const Timing& t = name == "legacy_t1"   ? wo.legacy_t1
                    : name == "legacy_t8" ? wo.legacy_t8
                    : name == "dense_t8"  ? wo.dense_t8
                                          : wo.sparse_t8;
  state.counters["ns_per_pair"] = t.ns_per_pair;
}

void report() {
  const Outcomes& o = outcomes();
  const auto density_line = [](const Workload& w) {
    std::printf("  %s: n=%zu, R=%zu trees, %llu pairs, U=%zu unique splits, "
                "density %.5f (auto -> %s)\n",
                w.tag, w.ds.taxa->size(), w.ds.trees.size(),
                static_cast<unsigned long long>(w.pairs),
                w.stats.universe_width, w.stats.density(),
                core::pick_bit_engine(w.stats, {}) ==
                        core::AllPairsEngine::BitDense
                    ? "dense"
                    : "sparse");
  };
  std::printf("\n--- Ablation A10: bit-matrix all-pairs engines ---\n");
  density_line(birthday());
  density_line(unique_heavy());

  util::TextTable table(
      {"Workload", "Engine", "Threads", "ns/pair", "vs legacy@8"});
  const auto rows = [&](const char* tag, const WorkloadOutcome& wo) {
    const auto row = [&](const char* engine, std::size_t t, const Timing& x) {
      table.add_row({tag, engine, std::to_string(t),
                     util::format_fixed(x.ns_per_pair, 1),
                     util::format_fixed(wo.legacy_t8.ns_per_pair /
                                            x.ns_per_pair,
                                        2) +
                         "x"});
    };
    row("legacy", 1, wo.legacy_t1);
    row("legacy", kThreads, wo.legacy_t8);
    row("dense", kThreads, wo.dense_t8);
    row("sparse", kThreads, wo.sparse_t8);
  };
  rows("birthday", o.birthday);
  rows("unique", o.unique);
  table.print(std::cout);

  const double dense_speedup =
      o.birthday.legacy_t8.seconds / o.birthday.dense_t8.seconds;
  const double sparse_ratio =
      o.unique.sparse_t8.seconds / o.unique.legacy_t8.seconds;
  verdict("bit-matrix >= 2x legacy at 8 threads (birthday-heavy)",
          dense_speedup >= 2.0,
          "dense " + util::format_fixed(dense_speedup, 2) +
              "x legacy (popcount words vs per-cell merge walk)");
  verdict("sparse path at parity with legacy on unique-heavy",
          sparse_ratio <= 1.05,
          "sparse/legacy = " + util::format_fixed(sparse_ratio, 2) +
              " (universe pass amortized; <= 1.05 is the parity bar)");
  verdict("auto heuristic picks dense/sparse on the right side",
          core::pick_bit_engine(birthday().stats, {}) ==
                  core::AllPairsEngine::BitDense &&
              core::pick_bit_engine(unique_heavy().stats, {}) ==
                  core::AllPairsEngine::BitSparse,
          "birthday density " + util::format_fixed(birthday().stats.density(),
                                                   5) +
              " -> dense, unique density " +
              util::format_fixed(unique_heavy().stats.density(), 5) +
              " -> sparse");

  record_baseline("matrix.birthday.t1.legacy_ns_per_pair",
                  o.birthday.legacy_t1.ns_per_pair);
  record_baseline("matrix.birthday.t8.legacy_ns_per_pair",
                  o.birthday.legacy_t8.ns_per_pair);
  record_baseline("matrix.birthday.t8.dense_ns_per_pair",
                  o.birthday.dense_t8.ns_per_pair);
  record_baseline("matrix.birthday.t8.sparse_ns_per_pair",
                  o.birthday.sparse_t8.ns_per_pair);
  record_baseline("matrix.unique.t8.legacy_ns_per_pair",
                  o.unique.legacy_t8.ns_per_pair);
  record_baseline("matrix.unique.t8.dense_ns_per_pair",
                  o.unique.dense_t8.ns_per_pair);
  record_baseline("matrix.unique.t8.sparse_ns_per_pair",
                  o.unique.sparse_t8.ns_per_pair);
  // Headline gates, phrased so lower is better for bench_compare.py:
  // dense/legacy on the birthday side (<= 0.5 is the >= 2x acceptance bar)
  // and sparse/legacy on the unique side (<= 1.05 is the parity bar).
  record_baseline("matrix.birthday.t8.dense_over_legacy_ratio",
                  o.birthday.dense_t8.seconds / o.birthday.legacy_t8.seconds);
  record_baseline("matrix.unique.t8.sparse_over_legacy_ratio", sparse_ratio);
}

}  // namespace
}  // namespace bfhrf::bench

int main(int argc, char** argv) {
  using namespace bfhrf::bench;
  print_header("Ablation A10 — bit-matrix all-pairs engines",
               "DESIGN.md §7; dense/sparse universe + tile scheduling");

  const auto reg = [](const char* name, const WorkloadOutcome& wo,
                      const char* which) {
    benchmark::RegisterBenchmark(name, [&wo, which](benchmark::State& s) {
      run_variant(s, wo, which);
    })->Iterations(1)->Unit(benchmark::kMillisecond);
  };
  reg("matrix/birthday/legacy_t1", outcomes().birthday, "legacy_t1");
  reg("matrix/birthday/legacy_t8", outcomes().birthday, "legacy_t8");
  reg("matrix/birthday/dense_t8", outcomes().birthday, "dense_t8");
  reg("matrix/birthday/sparse_t8", outcomes().birthday, "sparse_t8");
  reg("matrix/unique/legacy_t8", outcomes().unique, "legacy_t8");
  reg("matrix/unique/dense_t8", outcomes().unique, "dense_t8");
  reg("matrix/unique/sparse_t8", outcomes().unique, "sparse_t8");

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  report();
  export_metrics("PR8");
  return 0;
}
