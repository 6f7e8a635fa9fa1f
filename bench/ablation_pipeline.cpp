// Ablation A7: the pipelined streaming engine across thread counts.
//
// Every build and query runs through one pipeline: the calling thread
// frames Newick records and queues them in batches while workers parse,
// extract, hash and (for the sharded store) route keys continuously — an
// inline zero-sync loop on 1-core hosts, where overlap is impossible. This bench streams the same file
// through it at 1..8 threads and reports build+query wall time per thread
// count, the speedup over 1 thread, and bitwise equality of every run's
// outputs with pipelined/t1 (classic RF is integer-valued, so ANY
// difference is a bug, not roundoff).
//
// The legacy barrier-batch baseline this bench used to race is gone from
// the engine; its last multi-core numbers are recorded in EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/bfhrf.hpp"
#include "core/tree_source.hpp"
#include "sim/datasets.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace bfhrf::bench {
namespace {

std::size_t r_trees() {
  switch (scale()) {
    case Scale::Smoke:
      return 300;
    case Scale::Small:
      return 8000;
    case Scale::Paper:
      return 50000;
  }
  return 0;
}

constexpr std::size_t kTaxa = 144;  // the Insect width (3 words per key)
const std::size_t kThreadCounts[] = {1, 2, 4, 8};

struct RunResult {
  double seconds = 0;
  std::vector<double> avg;
};
std::map<std::size_t, RunResult> g_results;  // keyed by thread count

std::string dataset_path() {
  static const std::string path = [] {
    const std::string p =
        (std::filesystem::temp_directory_path() / "bfhrf_a7_pipeline.nwk")
            .string();
    sim::DatasetSpec spec = sim::insect_like(r_trees());
    (void)sim::generate_to_file(spec, p);
    return p;
  }();
  return path;
}

phylo::TaxonSetPtr file_taxa() {
  static const phylo::TaxonSetPtr taxa = [] {
    auto t = std::make_shared<phylo::TaxonSet>();
    core::FileTreeSource scan(dataset_path(), t);
    phylo::Tree tree;
    while (scan.next(tree)) {
    }
    return t;
  }();
  return taxa;
}

/// Streamed build + streamed query (Q == R, both from file), timed.
RunResult run_config(std::size_t threads) {
  const auto taxa = file_taxa();
  RunResult out;
  util::WallTimer timer;
  core::Bfhrf engine(taxa->size(), {.threads = threads});
  core::FileTreeSource reference(dataset_path(), taxa);
  engine.build(reference);
  reference.reset();
  out.avg = engine.query(reference);
  out.seconds = timer.seconds();
  return out;
}

void report() {
  std::printf("\n--- Ablation A7: pipelined streaming engine "
              "(n=%zu, r=q=%zu, streamed from file) ---\n",
              kTaxa, r_trees());

  const RunResult& truth = g_results[1];
  util::TextTable table({"Threads", "Time(s)", "Speedup vs t1"});
  bool all_equal = true;
  for (const auto& [threads, run] : g_results) {
    table.add_row({std::to_string(threads),
                   util::format_fixed(run.seconds, 2),
                   util::format_fixed(truth.seconds / run.seconds, 2) + "x"});
    if (run.avg != truth.avg) {
      all_equal = false;
      std::printf("MISMATCH: pipelined/t%zu differs from pipelined/t1\n",
                  threads);
    }
  }
  table.print(std::cout);
  verdict("every thread count agrees bitwise with pipelined/t1", all_equal,
          std::to_string(g_results.size()) + " configurations x " +
              std::to_string(truth.avg.size()) + " averages");
}

}  // namespace
}  // namespace bfhrf::bench

int main(int argc, char** argv) {
  using namespace bfhrf::bench;
  print_header("Ablation A7 — pipelined streaming engine",
               "engine overhaul; paper SVI threading methodology");
  for (const std::size_t t : kThreadCounts) {
    benchmark::RegisterBenchmark(("pipelined/t" + std::to_string(t)).c_str(),
                                 [t](benchmark::State& state) {
                                   for (auto _ : state) {
                                     g_results[t] = run_config(t);
                                   }
                                 })
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
  export_metrics();
  return 0;
}
