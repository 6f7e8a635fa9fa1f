// Ablation A5: what does extensibility cost?
//
// The paper's §VII-F pitch is that variants plug into BFHRF "in the same
// manner as traditional RF" — i.e. at no structural cost. This bench
// quantifies the runtime overhead of each shipped variant relative to
// classic RF on one collection, plus the branch-score engine (which needs
// its own per-split length statistics). Each row is the median of
// kTimedIterations timed build+query runs, the classic row included: at
// smoke scale classic takes a few milliseconds, and one noisy run of it
// would move every ratio.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/bfhrf.hpp"
#include "core/branch_score.hpp"
#include "core/variants.hpp"
#include "sim/datasets.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace bfhrf::bench {
namespace {

std::size_t r_trees() {
  switch (scale()) {
    case Scale::Smoke:
      return 100;
    case Scale::Small:
      return 3000;
    case Scale::Paper:
      return 30000;
  }
  return 0;
}

constexpr std::size_t kTaxa = 100;

/// Timed build+query runs per row; the row reports their median.
constexpr int kTimedIterations = 5;

const sim::Dataset& dataset() {
  static const sim::Dataset ds = [] {
    sim::DatasetSpec spec = sim::variable_trees(r_trees());
    spec.branch_lengths = true;  // the branch-score row needs lengths
    return sim::generate(spec);
  }();
  return ds;
}

struct Row {
  double seconds = 0;  ///< median of the timed runs
  std::size_t memory = 0;
};
std::map<std::string, Row>& rows() {
  static std::map<std::string, Row> r;
  return r;
}

/// Time `once` (one build+query, returning its store bytes) per benchmark
/// iteration and record the median as row `name`.
template <typename Once>
void time_row(benchmark::State& state, const std::string& name, Once once) {
  std::vector<double> times;
  std::size_t memory = 0;
  for (auto _ : state) {
    const util::WallTimer timer;
    memory = once();
    times.push_back(timer.seconds());
  }
  std::sort(times.begin(), times.end());
  rows()[name] = {times[times.size() / 2], memory};
}

void run_variant(benchmark::State& state, const std::string& name,
                 const core::RfVariant* variant) {
  const auto& ds = dataset();
  time_row(state, name, [&] {
    core::BfhrfOptions opts;
    opts.variant = variant;
    core::Bfhrf engine(kTaxa, opts);
    engine.build(ds.trees);
    benchmark::DoNotOptimize(engine.query(ds.trees));
    return engine.stats().hash_memory_bytes;
  });
}

void run_branch_score(benchmark::State& state) {
  const auto& ds = dataset();
  time_row(state, "branch-score", [&] {
    core::BranchScoreBfhrf engine(kTaxa);
    engine.build(ds.trees);
    benchmark::DoNotOptimize(engine.query(ds.trees));
    return engine.memory_bytes();
  });
}

void report() {
  std::printf("\n--- Ablation A5: variant overhead (n=%zu, r=%zu, Q=R; "
              "median of %d runs) ---\n",
              kTaxa, dataset().trees.size(), kTimedIterations);
  const double base = rows().count("classic") ? rows()["classic"].seconds
                                              : 0.0;
  util::TextTable table({"Variant", "Time(s)", "vs classic", "Store MB"});
  for (const char* name : {"classic", "size-filtered", "info-weighted",
                           "compressed-keys", "branch-score"}) {
    const auto it = rows().find(name);
    if (it == rows().end()) {
      continue;
    }
    table.add_row(
        {name, util::format_fixed(it->second.seconds, 3),
         util::format_fixed(
             base > 0 ? it->second.seconds / base : 0.0, 2),
         util::format_fixed(
             static_cast<double>(it->second.memory) / (1024.0 * 1024.0),
             2)});
  }
  table.print(std::cout);
  std::printf("\n");

  bool all_cheap = true;
  for (const auto& [name, row] : rows()) {
    if (base > 0 && row.seconds > 4.0 * base) {
      all_cheap = false;
    }
  }
  verdict("variants stay within small-constant overhead (§VII-F)",
          all_cheap, "every variant < 4x classic runtime");
}

void run_compressed(benchmark::State& state) {
  const auto& ds = dataset();
  time_row(state, "compressed-keys", [&] {
    core::Bfhrf engine(kTaxa, {.compressed_keys = true});
    engine.build(ds.trees);
    benchmark::DoNotOptimize(engine.query(ds.trees));
    return engine.stats().hash_memory_bytes;
  });
}

}  // namespace
}  // namespace bfhrf::bench

int main(int argc, char** argv) {
  using namespace bfhrf::bench;
  print_header("Ablation A5 — cost of extensibility", "§VII-F, §IX");

  static const bfhrf::core::SizeFilteredRf size_filter(3, kTaxa / 2);
  static const bfhrf::core::InformationWeightedRf info(kTaxa);

  benchmark::RegisterBenchmark("variant/classic", [](benchmark::State& s) {
    run_variant(s, "classic", nullptr);
  })->Iterations(kTimedIterations)->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("variant/size_filtered",
                               [](benchmark::State& s) {
                                 run_variant(s, "size-filtered",
                                             &size_filter);
                               })
      ->Iterations(kTimedIterations)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("variant/info_weighted",
                               [](benchmark::State& s) {
                                 run_variant(s, "info-weighted", &info);
                               })
      ->Iterations(kTimedIterations)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("variant/compressed_keys", &run_compressed)
      ->Iterations(kTimedIterations)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("variant/branch_score", &run_branch_score)
      ->Iterations(kTimedIterations)
      ->Unit(benchmark::kMillisecond);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  report();
  return 0;
}
