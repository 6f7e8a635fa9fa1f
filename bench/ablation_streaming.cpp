// Ablation A6: streaming input and the O(n²) memory claim.
//
// Table I footnotes BFHRF's space as "O(n²) in theory, O(n²r) in the
// current implementation due to the nature of multiprocessing" — the
// Python build had to materialize R to fan it out to worker processes.
// This implementation streams trees to worker threads through a bounded
// queue, so the claim is achievable; this bench measures it:
//
//   in-memory path : all r trees resident + the hash
//   streaming path : <= the queued batches, one batch per worker and the
//                    producer's, 16 trees each (Bfhrf::max_resident_trees)
//                    + the hash
//
// Build workers also stage split keys on their way into the sharded hash,
// at most Bfhrf::kStageKeys plus one tree each whatever r is
// (Bfhrf::max_staged_keys), so staging adds no r term either.
//
// Reported: exact resident bytes (trees + engine) and the staged-key bound
// for both paths, plus process RSS deltas as corroboration (streaming runs
// first, while the high-water mark is still low).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <iostream>

#include "common.hpp"
#include "core/bfhrf.hpp"
#include "core/tree_source.hpp"
#include "sim/datasets.hpp"
#include "util/memory.hpp"
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
      return 20000;
    case Scale::Paper:
      return 149278;
  }
  return 0;
}

constexpr std::size_t kTaxa = 144;  // the Insect width

struct Path {
  double seconds = 0;
  std::size_t tree_bytes = 0;    // resident Tree arenas at peak
  std::size_t staged_bytes = 0;  // staged-key bound
  std::size_t engine_bytes = 0;  // hash
  std::size_t rss_before = 0;
  std::size_t rss_peak = 0;
  std::vector<double> head;      // first few results, for the equality check
};
Path g_stream;
Path g_memory;

std::string dataset_path() {
  static const std::string path = [] {
    const std::string p = (std::filesystem::temp_directory_path() /
                           "bfhrf_a6_insect_like.nwk")
                              .string();
    sim::DatasetSpec spec = sim::insect_like(r_trees());
    (void)sim::generate_to_file(spec, p);
    return p;
  }();
  return path;
}

phylo::TaxonSetPtr file_taxa() {
  auto taxa = std::make_shared<phylo::TaxonSet>();
  core::FileTreeSource scan(dataset_path(), taxa);
  phylo::Tree t;
  while (scan.next(t)) {
  }
  return taxa;
}

/// Bytes of the most keys `engine`'s build workers can stage at once.
std::size_t staged_bound_bytes(const core::Bfhrf& engine) {
  return engine.max_staged_keys() * util::words_for_bits(kTaxa) *
         sizeof(std::uint64_t);
}

void run_streaming(benchmark::State& state) {
  const auto taxa = file_taxa();
  for (auto _ : state) {
    g_stream.rss_before = util::current_rss_bytes();
    util::WallTimer timer;
    core::Bfhrf engine(taxa->size(), {.threads = 2});
    core::FileTreeSource reference(dataset_path(), taxa);
    engine.build(reference);
    reference.reset();
    const auto avg = engine.query(reference);
    g_stream.seconds = timer.seconds();
    g_stream.engine_bytes = engine.stats().hash_memory_bytes;
    g_stream.staged_bytes = staged_bound_bytes(engine);
    // Residency bound: the trees the pipeline can hold at once (queued
    // batches + one batch per worker + the producer's, 16 trees each, and
    // each worker's parse tree), each counted as a Tree arena of ~2n nodes.
    // Newick records queue as text, about a tenth of that.
    g_stream.tree_bytes = engine.max_resident_trees() * 2 * kTaxa *
                          sizeof(phylo::Tree::Node);
    g_stream.rss_peak = util::peak_rss_bytes();
    g_stream.head.assign(avg.begin(),
                         avg.begin() + std::min<std::size_t>(8, avg.size()));
  }
}

void run_in_memory(benchmark::State& state) {
  const auto taxa = file_taxa();
  for (auto _ : state) {
    g_memory.rss_before = util::current_rss_bytes();
    util::WallTimer timer;
    const auto trees = phylo::read_newick_file(dataset_path(), taxa);
    std::size_t tree_bytes = 0;
    for (const auto& t : trees) {
      tree_bytes += t.memory_bytes();
    }
    core::Bfhrf engine(taxa->size(), {.threads = 2});
    engine.build(trees);
    const auto avg = engine.query(trees);
    g_memory.seconds = timer.seconds();
    g_memory.engine_bytes = engine.stats().hash_memory_bytes;
    g_memory.staged_bytes = staged_bound_bytes(engine);
    g_memory.tree_bytes = tree_bytes;
    g_memory.rss_peak = util::peak_rss_bytes();
    g_memory.head.assign(avg.begin(),
                         avg.begin() + std::min<std::size_t>(8, avg.size()));
  }
}

void report() {
  const auto mb = [](std::size_t b) {
    return util::format_fixed(static_cast<double>(b) / (1024.0 * 1024.0), 2);
  };
  std::printf("\n--- Ablation A6: streaming vs in-memory input (n=%zu, "
              "r=%zu, Q=R from file) ---\n",
              kTaxa, r_trees());
  util::TextTable table({"Path", "Time(s)", "Resident tree MB",
                         "Staged key MB", "Hash MB", "Peak RSS MB"});
  table.add_row({"streaming (pipeline)",
                 util::format_fixed(g_stream.seconds, 2),
                 mb(g_stream.tree_bytes), mb(g_stream.staged_bytes),
                 mb(g_stream.engine_bytes), mb(g_stream.rss_peak)});
  table.add_row({"in-memory", util::format_fixed(g_memory.seconds, 2),
                 mb(g_memory.tree_bytes), mb(g_memory.staged_bytes),
                 mb(g_memory.engine_bytes), mb(g_memory.rss_peak)});
  table.print(std::cout);
  std::printf("(streaming ran first, so its peak RSS is an honest upper "
              "bound on that path — though it still includes the one-time "
              "in-process dataset synthesis; the exact 'Resident tree MB' "
              "column carries the claim. Re-parsing Q costs the extra "
              "time, the paper's stated trade-off.)\n\n");

  bool same = g_stream.head.size() == g_memory.head.size();
  for (std::size_t i = 0; same && i < g_stream.head.size(); ++i) {
    same = (g_stream.head[i] == g_memory.head[i]);
  }
  verdict("streaming and in-memory agree exactly", same,
          "first 8 averages bit-identical");
  verdict("streaming removes the O(n^2 r) tree residency (Table I note)",
          g_stream.tree_bytes * 10 < g_memory.tree_bytes,
          "resident trees " + mb(g_stream.tree_bytes) + " MB vs " +
              mb(g_memory.tree_bytes) + " MB");
}

}  // namespace
}  // namespace bfhrf::bench

int main(int argc, char** argv) {
  using namespace bfhrf::bench;
  print_header("Ablation A6 — streaming input memory", "Table I footnote, §VII-C");
  benchmark::RegisterBenchmark("build/streaming", &run_streaming)
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("build/in_memory", &run_in_memory)
      ->Iterations(1)
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
