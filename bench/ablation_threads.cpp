// Ablation A2: thread scaling of the parallel engines.
//
// The paper parallelizes "at the comparison level" (whole trees) and
// reports reduced marginal gains from 8 to 16 cores (§VII-A) plus higher
// memory for more BFHRF threads (§VII-C, per-worker partial hashes). This
// bench sweeps thread counts for BFHRF and DSMP and reports time, speedup
// and the per-thread memory overhead.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <iostream>
#include <map>
#include <thread>

#include "common.hpp"
#include "core/bfhrf.hpp"
#include "core/sequential_rf.hpp"
#include "sim/datasets.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace bfhrf::bench {
namespace {

std::size_t r_trees() {
  switch (scale()) {
    case Scale::Smoke:
      return 60;
    case Scale::Small:
      return 1500;
    case Scale::Paper:
      return 20000;
  }
  return 0;
}

const sim::Dataset& dataset() {
  static const sim::Dataset ds = [] {
    sim::DatasetSpec spec = sim::variable_trees(r_trees());
    return sim::generate(spec);
  }();
  return ds;
}

struct Point {
  double bfhrf_seconds = 0;
  std::size_t bfhrf_bytes = 0;
  double dsmp_seconds = 0;
};
std::map<std::size_t, Point>& points() {
  static std::map<std::size_t, Point> p;
  return p;
}

void run_bfhrf(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const auto& ds = dataset();
  for (auto _ : state) {
    util::WallTimer timer;
    core::Bfhrf engine(ds.taxa->size(), {.threads = threads});
    engine.build(ds.trees);
    benchmark::DoNotOptimize(engine.query(ds.trees));
    points()[threads].bfhrf_seconds = timer.seconds();
    points()[threads].bfhrf_bytes = engine.stats().hash_memory_bytes;
  }
}

void run_dsmp(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const auto& ds = dataset();
  // Keep DSMP affordable: fixed query subset, scaled to full-q rate.
  const std::size_t q = std::min<std::size_t>(ds.trees.size(),
                                              scale() == Scale::Smoke ? 20
                                                                      : 100);
  for (auto _ : state) {
    util::WallTimer timer;
    const auto result = core::sequential_avg_rf(
        std::span<const phylo::Tree>(ds.trees.data(), q), ds.trees,
        {.threads = threads});
    benchmark::DoNotOptimize(result.avg_rf.data());
    points()[threads].dsmp_seconds =
        timer.seconds() * static_cast<double>(ds.trees.size()) /
        static_cast<double>(q);
  }
}

void report() {
  std::printf("\n--- Ablation A2: thread scaling (n=100, r=%zu, host "
              "threads=%u) ---\n",
              dataset().trees.size(), std::thread::hardware_concurrency());
  const double bfh_base =
      points().count(1) ? points()[1].bfhrf_seconds : 0.0;
  const double dsmp_base =
      points().count(1) ? points()[1].dsmp_seconds : 0.0;
  util::TextTable table({"Threads", "BFHRF time(s)", "BFHRF speedup",
                         "BFHRF hash MB", "DSMP time(s)*", "DSMP speedup"});
  for (const auto& [threads, p] : points()) {
    table.add_row(
        {std::to_string(threads), util::format_fixed(p.bfhrf_seconds, 3),
         util::format_fixed(
             p.bfhrf_seconds > 0 ? bfh_base / p.bfhrf_seconds : 0, 2),
         util::format_fixed(
             static_cast<double>(p.bfhrf_bytes) / (1024.0 * 1024.0), 2),
         util::format_fixed(p.dsmp_seconds, 1),
         util::format_fixed(
             p.dsmp_seconds > 0 ? dsmp_base / p.dsmp_seconds : 0, 2)});
  }
  table.print(std::cout);
  std::printf("(* DSMP extrapolated from a %s-scale query subset, as the "
              "paper extrapolated DS rates)\n\n",
              scale_name());

  const unsigned hw = std::thread::hardware_concurrency();
  if (hw <= 1) {
    verdict("thread scaling measurable on this host", false,
            "single hardware thread: speedups ~1 expected; shape claims "
            "are covered by the r/n sweeps");
  } else {
    const auto it = points().find(std::min<std::size_t>(hw, 8));
    if (it != points().end() && bfh_base > 0) {
      verdict("BFHRF speeds up with threads (§VII-B)",
              it->second.bfhrf_seconds < bfh_base,
              "1T=" + util::format_fixed(bfh_base, 2) + "s " +
                  std::to_string(it->first) + "T=" +
                  util::format_fixed(it->second.bfhrf_seconds, 2) + "s");
    }
  }
  // §VII-C: more threads -> more partial-hash memory. Our workers share
  // one store and stage a bounded number of keys each, so the retained
  // hash should not grow with threads; assert that instead and note the
  // Python contrast.
  bool constant = true;
  std::size_t first = points().begin()->second.bfhrf_bytes;
  for (const auto& [threads, p] : points()) {
    constant &= (p.bfhrf_bytes == first);
  }
  verdict("final hash size independent of thread count", constant,
          "workers share one store, no per-worker hash (the Python "
          "implementation kept one per process; §VII-C)");
}

}  // namespace
}  // namespace bfhrf::bench

int main(int argc, char** argv) {
  using namespace bfhrf::bench;
  print_header("Ablation A2 — thread scaling", "§VII-A/B/C");
  for (const int threads : {1, 2, 4, 8, 16}) {
    benchmark::RegisterBenchmark(
        ("BFHRF/threads=" + std::to_string(threads)).c_str(), &run_bfhrf)
        ->Arg(threads)
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("DSMP/threads=" + std::to_string(threads)).c_str(), &run_dsmp)
        ->Arg(threads)
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  report();
  return 0;
}
