// Ablation A4: frequency-hash behaviour — unique-split saturation and
// reserve policy.
//
// Two design claims this pins down:
//  * §VII-C: BFHRF memory is bounded by UNIQUE bipartitions, which saturate
//    as r grows on clustered (real-world-like) collections — we sweep r for
//    clustered vs independent collections and report unique counts, bytes
//    and bytes/tree.
//  * §IX (future work): key storage is the memory knob; we measure the
//    effect of pre-sizing (expected_unique) on build time.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <iostream>
#include <map>

#include "common.hpp"
#include "core/bfhrf.hpp"
#include "sim/datasets.hpp"
#include "sim/generators.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace bfhrf::bench {
namespace {

std::vector<std::size_t> r_points() {
  switch (scale()) {
    case Scale::Smoke:
      return {50, 100, 200};
    case Scale::Small:
      return {500, 1000, 2000, 4000, 8000};
    case Scale::Paper:
      return {1000, 10000, 50000, 100000};
  }
  return {};
}

constexpr std::size_t kTaxa = 100;

const std::vector<phylo::Tree>& clustered() {
  static const auto trees = [] {
    sim::DatasetSpec spec = sim::variable_trees(r_points().back());
    return sim::generate(spec).trees;
  }();
  return trees;
}

const std::vector<phylo::Tree>& independent() {
  static const auto trees = [] {
    const auto taxa = phylo::TaxonSet::make_numbered(kTaxa);
    util::Rng rng(0xD15EA5E);
    std::vector<phylo::Tree> out;
    out.reserve(r_points().back());
    for (std::size_t i = 0; i < r_points().back(); ++i) {
      out.push_back(sim::uniform_tree(taxa, rng));
    }
    return out;
  }();
  return trees;
}

struct Point {
  std::size_t unique = 0;
  std::size_t bytes = 0;
  double build_seconds = 0;
};
std::map<std::pair<bool, std::size_t>, Point>& points() {
  static std::map<std::pair<bool, std::size_t>, Point> p;
  return p;
}

void run_saturation(benchmark::State& state) {
  const bool indep = state.range(0) != 0;
  const auto r = static_cast<std::size_t>(state.range(1));
  const auto& trees = indep ? independent() : clustered();
  for (auto _ : state) {
    util::WallTimer timer;
    core::Bfhrf engine(kTaxa, {.threads = 1});
    engine.build(std::span<const phylo::Tree>(trees.data(), r));
    auto& p = points()[{indep, r}];
    p.build_seconds = timer.seconds();
    p.unique = engine.stats().unique_bipartitions;
    p.bytes = engine.stats().hash_memory_bytes;
  }
}

struct CodecPoint {
  double raw_mb = 0;
  double comp_mb = 0;
  double raw_seconds = 0;
  double comp_seconds = 0;
  double mean_key_bytes = 0;
};
std::map<std::size_t, CodecPoint>& codec_points() {
  static std::map<std::size_t, CodecPoint> p;
  return p;
}

void run_codec(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool compressed = state.range(1) != 0;
  sim::DatasetSpec spec = sim::variable_species(n);
  spec.n_trees = scale() == Scale::Smoke ? 30 : 200;
  const sim::Dataset ds = sim::generate(spec);
  for (auto _ : state) {
    util::WallTimer timer;
    core::Bfhrf engine(n, {.compressed_keys = compressed});
    engine.build(ds.trees);
    benchmark::DoNotOptimize(engine.query(ds.trees));
    auto& p = codec_points()[n];
    const double mb =
        static_cast<double>(engine.stats().hash_memory_bytes) /
        (1024.0 * 1024.0);
    if (compressed) {
      p.comp_seconds = timer.seconds();
      p.comp_mb = mb;
      p.mean_key_bytes =
          static_cast<double>(engine.store().key_bytes()) /
          static_cast<double>(engine.store().unique_count());
    } else {
      p.raw_seconds = timer.seconds();
      p.raw_mb = mb;
    }
  }
}

double reserve_effect(std::size_t expected) {
  const auto& trees = clustered();
  const std::size_t r = std::min<std::size_t>(trees.size(), 2000);
  util::WallTimer timer;
  core::FrequencyHash hash(kTaxa, expected);
  for (std::size_t i = 0; i < r; ++i) {
    const auto bips = phylo::extract_bipartitions(trees[i]);
    bips.for_each([&](util::ConstWordSpan w) { hash.add(w); });
  }
  return timer.seconds();
}

void report() {
  std::printf("\n--- Ablation A4a: unique-split saturation (n=%zu) ---\n",
              kTaxa);
  util::TextTable table({"Collection", "r", "Unique splits",
                         "Unique/(r*(n-3))", "Hash MB", "Bytes/tree"});
  for (const auto& [key, p] : points()) {
    const auto& [indep, r] = key;
    table.add_row(
        {indep ? "independent" : "clustered", std::to_string(r),
         std::to_string(p.unique),
         util::format_fixed(static_cast<double>(p.unique) /
                                (static_cast<double>(r) * (kTaxa - 3)),
                            4),
         util::format_fixed(static_cast<double>(p.bytes) / (1024.0 * 1024.0),
                            2),
         util::format_fixed(static_cast<double>(p.bytes) /
                                static_cast<double>(r),
                            0)});
  }
  table.print(std::cout);
  std::printf("\n");

  // Saturation: on clustered data, bytes/tree falls as r grows.
  const auto rs = r_points();
  const auto first = points().find({false, rs.front()});
  const auto last = points().find({false, rs.back()});
  if (first != points().end() && last != points().end()) {
    const double bpt_first = static_cast<double>(first->second.bytes) /
                             static_cast<double>(rs.front());
    const double bpt_last = static_cast<double>(last->second.bytes) /
                            static_cast<double>(rs.back());
    verdict("clustered collections saturate (§VII-C)", bpt_last < bpt_first,
            "bytes/tree " + util::format_fixed(bpt_first, 0) + " -> " +
                util::format_fixed(bpt_last, 0));
  }
  // Independent collections keep discovering splits: near-linear uniques.
  const auto ifirst = points().find({true, rs.front()});
  const auto ilast = points().find({true, rs.back()});
  if (ifirst != points().end() && ilast != points().end()) {
    const double ratio = static_cast<double>(ilast->second.unique) /
                         static_cast<double>(ifirst->second.unique);
    const double r_ratio = static_cast<double>(rs.back()) /
                           static_cast<double>(rs.front());
    verdict("independent collections do not saturate", ratio > 0.5 * r_ratio,
            "unique-split growth " + util::format_fixed(ratio, 1) +
                "x for " + util::format_fixed(r_ratio, 1) + "x more trees");
  }

  std::printf("\n--- Ablation A4c: raw vs compressed keys (§IX future "
              "work; r=200 clustered) ---\n");
  util::TextTable ctable({"n", "raw MB", "compressed MB", "ratio",
                          "mean key B (raw)", "mean key B (comp)",
                          "raw s", "comp s"});
  for (const auto& [n, p] : codec_points()) {
    const double raw_key =
        static_cast<double>(util::words_for_bits(n)) * 8.0;
    ctable.add_row(
        {std::to_string(n), util::format_fixed(p.raw_mb, 2),
         util::format_fixed(p.comp_mb, 2),
         util::format_fixed(p.comp_mb > 0 ? p.raw_mb / p.comp_mb : 0, 2),
         util::format_fixed(raw_key, 0),
         util::format_fixed(p.mean_key_bytes, 1),
         util::format_fixed(p.raw_seconds, 3),
         util::format_fixed(p.comp_seconds, 3)});
  }
  ctable.print(std::cout);
  if (!codec_points().empty()) {
    const auto& last = *codec_points().rbegin();
    verdict("compressed keys reduce hash memory at large n (§IX)",
            last.second.comp_mb < last.second.raw_mb,
            "n=" + std::to_string(last.first) + ": " +
                util::format_fixed(last.second.raw_mb, 2) + " -> " +
                util::format_fixed(last.second.comp_mb, 2) + " MB");
  }

  std::printf("\n--- Ablation A4b: reserve policy (clustered, r=2000) ---\n");
  util::TextTable rtable({"expected_unique", "Build time (s)"});
  for (const std::size_t expected : {std::size_t{0}, std::size_t{100000}}) {
    rtable.add_row({std::to_string(expected),
                    util::format_fixed(reserve_effect(expected), 3)});
  }
  rtable.print(std::cout);
  std::printf("(pre-sizing avoids rehash-and-copy during the build; both "
              "end states are identical)\n");
}

}  // namespace
}  // namespace bfhrf::bench

int main(int argc, char** argv) {
  using namespace bfhrf::bench;
  print_header("Ablation A4 — frequency-hash memory behaviour",
               "§VII-C and §IX");
  for (const std::size_t r : r_points()) {
    for (const int indep : {0, 1}) {
      benchmark::RegisterBenchmark(
          (std::string(indep != 0 ? "independent" : "clustered") +
           "/r=" + std::to_string(r))
              .c_str(),
          &run_saturation)
          ->Args({indep, static_cast<long>(r)})
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
  for (const std::size_t n : {100, 250, 500, 1000}) {
    for (const int compressed : {0, 1}) {
      benchmark::RegisterBenchmark(
          (std::string(compressed != 0 ? "keys_compressed" : "keys_raw") +
           "/n=" + std::to_string(n))
              .c_str(),
          &run_codec)
          ->Args({static_cast<long>(n), compressed})
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
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
