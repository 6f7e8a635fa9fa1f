// Ablation A9: the sharded parallel build and the mmap index.
//
// A build with workers shards the store by the top bits of each key's
// fingerprint: every worker routes a tree's keys into its own per-shard
// buckets and flushes a bucket into its shard, under that shard's lock,
// once it holds Bfhrf::kStageKeys / S keys; the residue drains after the
// pipeline joins. Each key is inserted exactly once, with no merge, and a
// worker never stages more than kStageKeys keys plus one tree (DESIGN.md
// §6).
//
// This bench measures that build on a unique-heavy collection (n = 144,
// high discordance, so most splits appear once) against the serial
// single-table build, checks the staging bound through the
// bfhrf.build.shard.staged_bytes_max gauge, and times the cold open of
// the BFHMAP index, which is mmap-ed and queried in place, so its cold
// load is validation only — no key is re-inserted.
//
//   single@1   — threads=1: the inline build into one table.
//   sharded@8  — threads=8: 8 shards, routed and flushed by 8 workers.
//
// Medians land in BENCH_PR7.json via record_baseline for
// scripts/bench_compare.py.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/bfhrf.hpp"
#include "core/serialize.hpp"
#include "core/sharded_hash.hpp"
#include "obs/metrics.hpp"
#include "sim/datasets.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace bfhrf::bench {
namespace {

constexpr std::size_t kThreads = 8;  // paper-style label; timesliced if narrower
constexpr std::size_t kReps = 5;  // odd: the median is a real sample

std::size_t r_trees() {
  switch (scale()) {
    case Scale::Smoke:
      return 64;
    case Scale::Small:
      return 2000;
    case Scale::Paper:
      return 20000;
  }
  return 0;
}

/// Unique-heavy collection: insect-like width (n=144, three words per key)
/// but with enough SPR/NNI discordance that most non-trivial splits appear
/// in exactly one tree — the regime where every staged key becomes a new
/// table entry.
struct Workload {
  sim::Dataset ds;
  std::size_t total_keys = 0;  ///< bipartitions inserted during a build
  std::size_t unique = 0;      ///< distinct splits (pre-sizing hint)
};

const Workload& workload() {
  static const Workload w = [] {
    sim::DatasetSpec spec = sim::insect_like(r_trees());
    spec.name = "shard-ablation";
    spec.moves_per_tree = 96;  // near-random trees: mostly singleton splits
    Workload out;
    out.ds = sim::generate(spec);
    // One untimed build discovers U and the key volume so every measured
    // run pre-sizes identically and no rehash lands in a timed region.
    core::Bfhrf probe(out.ds.taxa->size(), {.threads = 1});
    probe.build(out.ds.trees);
    out.unique = probe.stats().unique_bipartitions;
    out.total_keys = probe.stats().total_bipartitions;
    return out;
  }();
  return w;
}

core::BfhrfOptions engine_opts(std::size_t threads) {
  core::BfhrfOptions o;
  o.threads = threads;
  o.expected_unique = workload().unique;
  return o;
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

struct BuildOutcome {
  double ns_per_key = 0;
  double seconds = 0;
  double staged_bytes_max = 0;  ///< largest gauge reading over the reps
  double staged_bytes_bound = 0;  ///< kStageKeys + n keys per worker
};

BuildOutcome measure_build(std::size_t threads) {
  const Workload& w = workload();
  std::vector<double> secs;
  BuildOutcome out;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    core::Bfhrf engine(w.ds.taxa->size(), engine_opts(threads));
    util::WallTimer timer;
    engine.build(w.ds.trees);
    secs.push_back(timer.seconds());
    benchmark::DoNotOptimize(engine.stats().unique_bipartitions);
    out.staged_bytes_max =
        std::max(out.staged_bytes_max,
                 obs::gauge_value("bfhrf.build.shard.staged_bytes_max"));
  }
  const std::size_t n = w.ds.taxa->size();
  out.staged_bytes_bound = static_cast<double>(
      (core::Bfhrf::kStageKeys + n) * util::words_for_bits(n) *
      sizeof(std::uint64_t));
  out.seconds = median_of(secs);
  out.ns_per_key = out.seconds * 1e9 / static_cast<double>(w.total_keys);
  return out;
}

// --- cold-load section -------------------------------------------------------

struct LoadOutcome {
  double mapped_seconds = 0;  ///< median mmap open of the BFHMAP layout
  bool results_identical = false;
};

LoadOutcome measure_cold_load(const std::vector<double>& want) {
  const Workload& w = workload();
  // The persisted index comes from the sharded build: the writer persists
  // each shard's tables verbatim as one set of sections per shard.
  core::Bfhrf built(w.ds.taxa->size(), engine_opts(kThreads));
  built.build(w.ds.trees);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("bfhrf_shard_bench_" + std::to_string(::getpid()) + ".bfhmap"))
          .string();
  core::save_bfhrf_file(built, path);

  LoadOutcome out;
  std::vector<double> secs;
  out.results_identical = true;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    util::WallTimer timer;
    core::Bfhrf engine = core::load_bfhrf_file(path);
    secs.push_back(timer.seconds());
    const auto got = engine.query(w.ds.trees);
    out.results_identical &=
        std::memcmp(got.data(), want.data(), want.size() * sizeof(double)) ==
        0;
  }
  std::filesystem::remove(path);
  out.mapped_seconds = median_of(secs);
  return out;
}

// --- measurement + report ----------------------------------------------------

struct Outcomes {
  BuildOutcome single_t1;
  BuildOutcome sharded_t8;
  LoadOutcome load;
};

Outcomes& outcomes() {
  static Outcomes o;
  return o;
}

void run_all_measurements() {
  static bool done = false;
  if (done) {
    return;
  }
  done = true;
  const Workload& w = workload();
  // Correctness pin before any timing: the two builds must agree
  // bit-for-bit on the self-query, and on a multi-core host the 8-thread
  // engine's store must actually have several shards.
  core::Bfhrf single(w.ds.taxa->size(), engine_opts(1));
  single.build(w.ds.trees);
  const auto want = single.query(w.ds.trees);
  core::Bfhrf sharded(w.ds.taxa->size(), engine_opts(kThreads));
  sharded.build(w.ds.trees);
  if (std::thread::hardware_concurrency() > 1 &&
      sharded.store().shard_count() == 1) {
    std::fprintf(stderr, "FATAL: sharded engine did not build shards\n");
    std::exit(1);
  }
  const auto got = sharded.query(w.ds.trees);
  if (std::memcmp(got.data(), want.data(), want.size() * sizeof(double)) !=
      0) {
    std::fprintf(stderr, "FATAL: sharded build diverged from single-table\n");
    std::exit(1);
  }

  // Interleave variants rep-major inside measure_build would need shared
  // state; builds are long enough (>> scheduler quantum) that per-variant
  // blocks are stable, matching the other engine-level ablations.
  outcomes().single_t1 = measure_build(1);
  outcomes().sharded_t8 = measure_build(kThreads);
  outcomes().load = measure_cold_load(want);
}

void run_variant(benchmark::State& state, const char* which) {
  for (auto _ : state) {
    run_all_measurements();
  }
  const Outcomes& o = outcomes();
  if (std::string(which) == "single_t1") {
    state.counters["build_ns_per_key"] = o.single_t1.ns_per_key;
  } else {
    state.counters["build_ns_per_key"] = o.sharded_t8.ns_per_key;
  }
}

void report() {
  const Workload& w = workload();
  const Outcomes& o = outcomes();
  std::printf("\n--- Ablation A9: sharded build (n=%zu, R=%zu trees, "
              "%zu keys, U=%zu unique, %.0f%% singleton-heavy) ---\n",
              w.ds.taxa->size(), w.ds.trees.size(), w.total_keys, w.unique,
              100.0 * static_cast<double>(w.unique) /
                  static_cast<double>(w.total_keys));
  util::TextTable table({"Ablation", "Threads", "Build ns/key",
                         "vs single@1", "Staged KB max"});
  const auto kb = [](double bytes) {
    return util::format_fixed(bytes / 1024.0, 1);
  };
  const auto row = [&](const char* name, std::size_t t,
                       const BuildOutcome& b) {
    table.add_row({name, std::to_string(t),
                   util::format_fixed(b.ns_per_key, 1),
                   util::format_fixed(o.single_t1.ns_per_key / b.ns_per_key,
                                      2) +
                       "x",
                   kb(b.staged_bytes_max)});
  };
  row("single@1", 1, o.single_t1);
  row("sharded@8", kThreads, o.sharded_t8);
  table.print(std::cout);

  std::printf("\ncold load (%zu unique keys): mmap open %.3f ms\n",
              w.unique, o.load.mapped_seconds * 1e3);

  std::string staged = "staged_bytes_max " +
                       kb(o.sharded_t8.staged_bytes_max) + " KB vs bound " +
                       kb(o.sharded_t8.staged_bytes_bound) + " KB";
  if (!obs::compiled_in()) {
    staged += " (obs compiled out: the gauge reads 0)";
  }
  verdict("8-thread build stages at most kStageKeys + n keys per worker",
          o.sharded_t8.staged_bytes_max <= o.sharded_t8.staged_bytes_bound,
          staged);
  verdict("mapped load serves bit-identical RF results",
          o.load.results_identical,
          o.load.results_identical ? "all query vectors byte-equal"
                                   : "DIVERGENCE from the in-memory engine");

  record_baseline("shard.build.t1.single_ns_per_key", o.single_t1.ns_per_key);
  record_baseline("shard.build.t8.sharded_ns_per_key",
                  o.sharded_t8.ns_per_key);
  record_baseline("shard.load.mmap_open_ms", o.load.mapped_seconds * 1e3);
}

}  // namespace
}  // namespace bfhrf::bench

int main(int argc, char** argv) {
  using namespace bfhrf::bench;
  print_header("Ablation A9 — sharded build + mmap index",
               "DESIGN.md §6; sharded build / index format ablation");

  benchmark::RegisterBenchmark("shard/single_t1", [](benchmark::State& s) {
    run_variant(s, "single_t1");
  })->Iterations(1)->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("shard/sharded_t8", [](benchmark::State& s) {
    run_variant(s, "sharded_t8");
  })->Iterations(1)->Unit(benchmark::kMillisecond);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  report();
  export_metrics("PR7");
  return 0;
}
