// Ablation A11: vector tree codec front end vs the Newick text front end.
//
// The Newick path pays per tree for character scanning and label lookups;
// the engine's record path takes the splits straight from the text
// (NewickSplitExtractor) and builds no Tree. The phylo2vec path replaces
// the text with n-1 fixed-width integer codes per tree: a .p2v corpus
// streams raw rows and VectorBipartitionExtractor accumulates subtree
// masks over a flat parent array, so no Tree is materialized either. This
// bench isolates the codec overhaul:
//
//   load      : stream the corpus and discard rows/trees — pure decode
//               (a full parse into a Tree vs fixed-record reads), plus
//               corpus bytes/sec.
//   frontend  : stream + canonical bipartition extraction per tree — the
//               exact per-tree work the engine's ingest workers perform:
//               framing plus the split pass from text, or a row read
//               plus the vector extractor.
//   e2e       : engine build + self-query (Q == R) streamed from file,
//               Tree ingest vs direct vector ingest across thread counts.
//
// Both corpora are written from the SAME generated tree collection, so
// classic RF averages must agree bitwise across formats (integer-valued:
// ANY difference is a bug, not roundoff).
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
#include "phylo/bipartition.hpp"
#include "phylo/newick.hpp"
#include "phylo/vector_codec.hpp"
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

constexpr std::size_t kTaxa = 144;  // the Insect width (2 words per key)
const std::size_t kThreadCounts[] = {1, 4};

struct RunResult {
  double seconds = 0;
  std::size_t trees = 0;
  std::size_t splits = 0;
  std::vector<double> avg;
};
std::map<std::string, RunResult> g_results;

/// One generated collection, written in both formats so every cell reads
/// the same topologies.
struct Corpus {
  std::string nwk;
  std::string p2v;
  phylo::TaxonSetPtr taxa;
};

const Corpus& corpus() {
  static const Corpus c = [] {
    Corpus out;
    out.nwk = "/tmp/bfhrf_a11_codec.nwk";
    out.p2v = "/tmp/bfhrf_a11_codec.p2v";
    sim::DatasetSpec spec = sim::insect_like(r_trees());
    const sim::Dataset ds = sim::generate(spec);
    const phylo::NewickWriteOptions wopts{.write_lengths = false};
    phylo::write_newick_file(out.nwk, ds.trees, wopts);
    phylo::write_p2v_file(out.p2v, ds.trees);
    out.taxa = ds.taxa;
    return out;
  }();
  return c;
}

std::uintmax_t corpus_bytes(const std::string& path) {
  return std::filesystem::file_size(path);
}

// --- load: stream and discard (decode-only) ---------------------------------

RunResult run_load_newick() {
  const Corpus& c = corpus();  // materialize the dataset before timing
  RunResult out;
  util::WallTimer timer;
  core::FileTreeSource src(c.nwk, c.taxa);
  phylo::Tree tree;
  while (src.next(tree)) {
    ++out.trees;
  }
  out.seconds = timer.seconds();
  return out;
}

RunResult run_load_p2v() {
  const Corpus& c = corpus();
  RunResult out;
  util::WallTimer timer;
  core::P2vFileSource src(c.p2v);
  phylo::TreeVector row;
  while (src.next(row)) {
    ++out.trees;
  }
  out.seconds = timer.seconds();
  return out;
}

// --- frontend: stream + canonical extraction per tree -----------------------

RunResult run_frontend_newick() {
  const Corpus& c = corpus();
  RunResult out;
  util::WallTimer timer;
  core::FileTreeSource src(c.nwk, c.taxa);
  std::string record;
  phylo::NewickSplitExtractor extractor;
  phylo::BipartitionSet bips;
  const phylo::BipartitionOptions opts{};
  while (src.next_record(record)) {
    extractor.extract_into(record, *c.taxa, opts, bips);
    out.splits += bips.size();
    ++out.trees;
  }
  out.seconds = timer.seconds();
  return out;
}

RunResult run_frontend_vector() {
  const Corpus& c = corpus();
  RunResult out;
  util::WallTimer timer;
  core::P2vFileSource src(c.p2v);
  phylo::TreeVector row;
  phylo::VectorBipartitionExtractor extractor;
  const phylo::BipartitionOptions opts{};
  while (src.next(row)) {
    const phylo::BipartitionSet& bips = extractor.extract(row, opts);
    out.splits += bips.size();
    ++out.trees;
  }
  out.seconds = timer.seconds();
  return out;
}

// --- e2e: engine build + self-query from file -------------------------------

RunResult run_e2e_newick(std::size_t threads) {
  const Corpus& c = corpus();
  RunResult out;
  util::WallTimer timer;
  core::Bfhrf engine(c.taxa->size(), core::BfhrfOptions{.threads = threads});
  core::FileTreeSource reference(c.nwk, c.taxa);
  engine.build(reference);
  reference.reset();
  out.avg = engine.query(reference);
  out.trees = out.avg.size();
  out.seconds = timer.seconds();
  return out;
}

RunResult run_e2e_vector(std::size_t threads) {
  const Corpus& c = corpus();
  RunResult out;
  util::WallTimer timer;
  core::Bfhrf engine(c.taxa->size(), core::BfhrfOptions{.threads = threads});
  core::P2vFileSource reference(c.p2v);
  engine.build(reference);
  reference.reset();
  out.avg = engine.query(reference);
  out.trees = out.avg.size();
  out.seconds = timer.seconds();
  return out;
}

// --- harness ----------------------------------------------------------------

template <typename Fn>
void register_cell(const std::string& label, Fn fn) {
  benchmark::RegisterBenchmark(label.c_str(),
                               [label, fn](benchmark::State& state) {
                                 for (auto _ : state) {
                                   g_results[label] = fn();
                                 }
                               })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

bool same_results(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {
      return false;
    }
  }
  return true;
}

double ns_per_tree(const RunResult& r) {
  return r.trees == 0 ? 0.0 : r.seconds * 1e9 / static_cast<double>(r.trees);
}

void report() {
  std::printf("\n--- Ablation A11: Newick front end vs phylo2vec vector "
              "front end (n=%zu, r=q=%zu, streamed from file) ---\n",
              kTaxa, r_trees());

  const double nwk_mb =
      static_cast<double>(corpus_bytes(corpus().nwk)) / (1024.0 * 1024.0);
  const double p2v_mb =
      static_cast<double>(corpus_bytes(corpus().p2v)) / (1024.0 * 1024.0);

  util::TextTable table(
      {"Format", "Corpus(MiB)", "Load(s)", "Load(MiB/s)", "Front end(s)",
       "ns/tree"});
  const RunResult& load_n = g_results["load/newick"];
  const RunResult& load_v = g_results["load/p2v"];
  const RunResult& fe_n = g_results["frontend/newick"];
  const RunResult& fe_v = g_results["frontend/vector"];
  table.add_row({"newick", util::format_fixed(nwk_mb, 1),
                 util::format_fixed(load_n.seconds, 3),
                 util::format_fixed(nwk_mb / load_n.seconds, 1),
                 util::format_fixed(fe_n.seconds, 3),
                 util::format_fixed(ns_per_tree(fe_n), 0)});
  table.add_row({"vector", util::format_fixed(p2v_mb, 1),
                 util::format_fixed(load_v.seconds, 3),
                 util::format_fixed(p2v_mb / load_v.seconds, 1),
                 util::format_fixed(fe_v.seconds, 3),
                 util::format_fixed(ns_per_tree(fe_v), 0)});
  table.print(std::cout);

  std::printf("\nEnd-to-end engine (build + self-query, streamed):\n");
  util::TextTable e2e({"Threads", "newick(s)", "vector(s)", "Speedup"});
  for (const std::size_t t : kThreadCounts) {
    const RunResult& n = g_results["e2e/newick/t" + std::to_string(t)];
    const RunResult& v = g_results["e2e/vector/t" + std::to_string(t)];
    e2e.add_row({std::to_string(t), util::format_fixed(n.seconds, 2),
                 util::format_fixed(v.seconds, 2),
                 util::format_fixed(n.seconds / v.seconds, 2) + "x"});
  }
  e2e.print(std::cout);

  // Correctness first: same trees in, so classic RF averages (integers
  // divided by a count) must agree bitwise between the two ingest forms.
  bool all_equal = true;
  for (const std::size_t t : kThreadCounts) {
    const RunResult& n = g_results["e2e/newick/t" + std::to_string(t)];
    const RunResult& v = g_results["e2e/vector/t" + std::to_string(t)];
    if (!same_results(n.avg, v.avg)) {
      all_equal = false;
      std::printf("MISMATCH: e2e t=%zu vector differs from newick\n", t);
    }
  }
  verdict("vector and Newick ingest agree bitwise", all_equal,
          std::to_string(std::size(kThreadCounts)) + " thread counts x " +
              std::to_string(g_results["e2e/newick/t1"].avg.size()) +
              " averages");

  verdict("both front ends extract the same split volume",
          fe_n.splits == fe_v.splits,
          std::to_string(fe_n.splits) + " vs " + std::to_string(fe_v.splits));

  const double ratio = fe_v.seconds / fe_n.seconds;
  verdict("vector front end >= 2x faster than Newick front end",
          fe_v.seconds * 2.0 <= fe_n.seconds,
          util::format_fixed(fe_n.seconds / fe_v.seconds, 2) + "x (" +
              util::format_fixed(ns_per_tree(fe_n), 0) + " -> " +
              util::format_fixed(ns_per_tree(fe_v), 0) + " ns/tree)");

  verdict(".p2v corpus smaller than the Newick corpus", p2v_mb < nwk_mb,
          util::format_fixed(p2v_mb, 1) + " MiB vs " +
              util::format_fixed(nwk_mb, 1) + " MiB");

  record_baseline("codec.load.newick.ns_per_tree", ns_per_tree(load_n));
  record_baseline("codec.load.p2v.ns_per_tree", ns_per_tree(load_v));
  record_baseline("codec.frontend.newick.ns_per_tree", ns_per_tree(fe_n));
  record_baseline("codec.frontend.vector.ns_per_tree", ns_per_tree(fe_v));
  record_baseline("codec.frontend.vector_over_newick_ratio", ratio);
  for (const std::size_t t : kThreadCounts) {
    const RunResult& v = g_results["e2e/vector/t" + std::to_string(t)];
    record_baseline("codec.e2e.vector.t" + std::to_string(t) + ".seconds",
                    v.seconds);
  }
}

}  // namespace
}  // namespace bfhrf::bench

int main(int argc, char** argv) {
  using namespace bfhrf::bench;
  print_header("Ablation A11 — vector tree codec front end",
               "codec overhaul; paper §III representation pipeline");
  register_cell("load/newick", run_load_newick);
  register_cell("load/p2v", run_load_p2v);
  register_cell("frontend/newick", run_frontend_newick);
  register_cell("frontend/vector", run_frontend_vector);
  for (const std::size_t t : kThreadCounts) {
    register_cell("e2e/newick/t" + std::to_string(t),
                  [t] { return run_e2e_newick(t); });
    register_cell("e2e/vector/t" + std::to_string(t),
                  [t] { return run_e2e_vector(t); });
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
