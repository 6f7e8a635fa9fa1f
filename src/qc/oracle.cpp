#include "qc/oracle.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <system_error>

#include <unistd.h>

#include "core/all_pairs.hpp"
#include "core/bfhrf.hpp"
#include "core/day.hpp"
#include "core/hashrf.hpp"
#include "core/rf.hpp"
#include "core/sequential_rf.hpp"
#include "core/tree_source.hpp"
#include "core/variants.hpp"
#include "phylo/bipartition.hpp"
#include "phylo/newick.hpp"
#include "util/error.hpp"

namespace bfhrf::qc {
namespace {

using core::RfMatrix;
using phylo::BipartitionOptions;
using phylo::BipartitionSet;
using phylo::Tree;

std::string format_seed(std::uint64_t seed) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%llX",
                static_cast<unsigned long long>(seed));
  return buf;
}

/// Ground truth: pairwise sorted-merge symmetric differences over
/// precomputed BipartitionSets. No hashing, no threads, no scratch reuse.
RfMatrix matrix_sequential(std::span<const Tree> trees, bool include_trivial) {
  const BipartitionOptions bip{.include_trivial = include_trivial};
  std::vector<BipartitionSet> sets;
  sets.reserve(trees.size());
  for (const Tree& t : trees) {
    sets.push_back(phylo::extract_bipartitions(t, bip));
  }
  RfMatrix m(trees.size());
  for (std::size_t i = 0; i < trees.size(); ++i) {
    for (std::size_t j = i + 1; j < trees.size(); ++j) {
      m.set(i, j,
            static_cast<std::uint32_t>(
                BipartitionSet::symmetric_difference_size(sets[i], sets[j])));
    }
  }
  return m;
}

RfMatrix matrix_day(std::span<const Tree> trees) {
  RfMatrix m(trees.size());
  for (std::size_t i = 0; i < trees.size(); ++i) {
    const core::DayTable table(trees[i]);
    for (std::size_t j = i + 1; j < trees.size(); ++j) {
      m.set(i, j, static_cast<std::uint32_t>(table.rf_against(trees[j])));
    }
  }
  return m;
}

/// Recover BFHRF's full matrix column-by-column: a one-tree reference
/// build per column, every tree queried against it. avgRF over r=1 is the
/// raw pairwise RF, so the cells are exact integers.
RfMatrix matrix_bfhrf_columns(std::span<const Tree> trees,
                              const core::BfhrfOptions& opts,
                              OracleReport& report,
                              const std::string& engine_label) {
  const std::size_t n_bits = trees.empty() ? 0 : trees[0].taxa()->size();
  RfMatrix m(trees.size());
  for (std::size_t j = 0; j < trees.size(); ++j) {
    core::Bfhrf engine(n_bits, opts);
    engine.build(trees.subspan(j, 1));
    const std::vector<double> col = engine.query(trees);
    for (std::size_t i = 0; i < trees.size(); ++i) {
      if (i == j) {
        continue;
      }
      const double v = col[i];
      // Cells must be non-negative integers. An invalid cell is itself a
      // divergence (recorded against 0, the smallest valid RF); the cell
      // is clamped so the matrix compare against the oracle still reports
      // the true expected value without casting a negative double (UB).
      if (v < 0.0 || v != std::floor(v)) {
        report.divergences.push_back(
            {engine_label, "integer RF cell", i, j, 0.0, v});
        m.set(i, j, 0);
        continue;
      }
      m.set(i, j, static_cast<std::uint32_t>(v));
    }
  }
  return m;
}

/// Exact expected averages of each query tree against R, derived from the
/// oracle matrix over the combined collection [R, Q] (query k sits at
/// combined index r + k; for the self case Q is R and offset is 0).
std::vector<double> expected_averages(const RfMatrix& matrix, std::size_t r,
                                      std::size_t q, std::size_t q_offset) {
  std::vector<double> out(q, 0.0);
  for (std::size_t k = 0; k < q; ++k) {
    double sum = 0.0;
    for (std::size_t j = 0; j < r; ++j) {
      sum += matrix.at(q_offset + k, j);
    }
    out[k] = sum / static_cast<double>(r);
  }
  return out;
}

void compare_averages(const std::string& engine,
                      std::span<const double> expected,
                      std::span<const double> actual, double scale,
                      OracleReport& report) {
  report.engines.push_back(engine);
  if (expected.size() != actual.size()) {
    report.divergences.push_back({engine, "average-RF vector length", 0, 0,
                                  static_cast<double>(expected.size()),
                                  static_cast<double>(actual.size())});
    return;
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ++report.cells_checked;
    if (expected[i] * scale != actual[i]) {
      report.divergences.push_back(
          {engine, "average-RF vector", i, 0, expected[i] * scale,
           actual[i]});
    }
  }
}

/// Reference and query collections written once as Newick text (lengths
/// included) into a private temp directory, removed again on destruction.
class NewickCorpus {
 public:
  NewickCorpus(std::span<const Tree> reference, std::span<const Tree> queries) {
    phylo::write_newick_file(reference_path(), reference);
    phylo::write_newick_file(query_path(), queries);
  }

  [[nodiscard]] std::string reference_path() const {
    return (dir_.path / "reference.nwk").string();
  }
  [[nodiscard]] std::string query_path() const {
    return (dir_.path / "queries.nwk").string();
  }

 private:
  /// Made before the files are written and removed with them, also when a
  /// write throws.
  struct TempDir {
    TempDir() {
      static std::atomic<unsigned> serial{0};
      path = std::filesystem::temp_directory_path() /
             ("bfhrf_oracle_" + std::to_string(::getpid()) + "_" +
              std::to_string(serial++));
      std::filesystem::create_directories(path);
    }
    ~TempDir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
    TempDir(const TempDir&) = delete;
    TempDir& operator=(const TempDir&) = delete;

    std::filesystem::path path;
  };
  TempDir dir_;
};

bool all_binary(std::span<const Tree> trees) {
  for (const Tree& t : trees) {
    if (!t.is_binary()) {
      return false;
    }
  }
  return true;
}

void run_matrix_engines(std::span<const Tree> trees, const OracleOptions& opts,
                        const RfMatrix& oracle, OracleReport& report) {
  if (all_binary(trees)) {
    compare_matrices("day", "sequential", oracle, matrix_day(trees), report);
  }

  {
    const auto hashrf = core::hash_rf(
        trees, {.mode = core::HashRfOptions::Mode::Exact,
                .include_trivial = opts.include_trivial});
    compare_matrices("hashrf/exact", "sequential", oracle, hashrf.matrix,
                     report);
  }

  // All-pairs: both bit-matrix engines at every thread count against the
  // merge-walk oracle, with which they share no kernel — the bit-for-bit
  // cross-check of the dense-id encoding, the popcount path, and the
  // sorted-id intersection path all at once.
  for (const std::size_t t : opts.thread_counts) {
    static constexpr struct {
      core::AllPairsEngine engine;
      const char* label;
    } kAllPairsEngines[] = {
        {core::AllPairsEngine::BitDense, "all_pairs/dense/t"},
        {core::AllPairsEngine::BitSparse, "all_pairs/sparse/t"},
    };
    for (const auto& e : kAllPairsEngines) {
      const auto m = core::all_pairs_rf(
          trees, {.threads = t,
                  .include_trivial = opts.include_trivial,
                  .engine = e.engine});
      compare_matrices(e.label + std::to_string(t), "sequential", oracle, m,
                       report);
    }
  }

  // BFHRF per-column: the real build+query machinery at pair granularity.
  const auto bfhrf_cols = [&](const std::string& label, core::BfhrfOptions o) {
    o.include_trivial = opts.include_trivial;
    const RfMatrix m = matrix_bfhrf_columns(trees, o, report, label);
    compare_matrices(label, "sequential", oracle, m, report);
  };
  for (const std::size_t t : opts.thread_counts) {
    bfhrf_cols("bfhrf/span/t" + std::to_string(t), {.threads = t});
  }
  if (opts.check_compressed) {
    bfhrf_cols("bfhrf/compressed-keys",
               {.threads = 1, .compressed_keys = true});
  }
}

void run_average_engines(std::span<const Tree> reference,
                         std::span<const Tree> queries,
                         const OracleOptions& opts,
                         std::span<const double> expected,
                         OracleReport& report) {
  const core::SequentialRfOptions seq_base{
      .include_trivial = opts.include_trivial};

  {
    auto o = seq_base;
    const auto ds = core::sequential_avg_rf(queries, reference, o);
    compare_averages("seq/ds", expected, ds.avg_rf, 1.0, report);
  }
  for (const std::size_t t : opts.thread_counts) {
    if (t == 1) {
      continue;  // t1 is the DS run above
    }
    auto o = seq_base;
    o.threads = t;
    const auto dsmp = core::sequential_avg_rf(queries, reference, o);
    compare_averages("seq/dsmp-t" + std::to_string(t), expected, dsmp.avg_rf,
                     1.0, report);
  }
  if (all_binary(reference) && all_binary(queries)) {
    auto o = seq_base;
    o.engine = core::PairwiseEngine::Day;
    const auto day = core::sequential_avg_rf(queries, reference, o);
    compare_averages("seq/day", expected, day.avg_rf, 1.0, report);
  }

  // How the engine reads the collections: the spans, or Newick files
  // streamed through FileTreeSource (the record path, whose workers
  // extract splits straight from the text).
  enum class Ingest { Span, Newick };
  const std::unique_ptr<const NewickCorpus> corpus =
      opts.check_streaming ? std::make_unique<const NewickCorpus>(reference,
                                                                  queries)
                           : nullptr;
  const auto bfhrf_avg = [&](const std::string& label, core::BfhrfOptions o,
                             Ingest ingest, double scale) {
    o.include_trivial = opts.include_trivial;
    const phylo::TaxonSetPtr taxa =
        reference.empty() ? nullptr : reference[0].taxa();
    core::Bfhrf engine(taxa ? taxa->size() : 0, o);
    std::vector<double> avg;
    if (ingest == Ingest::Newick) {
      core::FileTreeSource ref(corpus->reference_path(), taxa);
      engine.build(ref);
      core::FileTreeSource q(corpus->query_path(), taxa);
      avg = engine.query(q);
    } else {
      engine.build(reference);
      avg = engine.query(queries);
    }
    compare_averages(label, expected, avg, scale, report);
  };

  for (const std::size_t t : opts.thread_counts) {
    bfhrf_avg("bfhrf/span/t" + std::to_string(t), {.threads = t},
              Ingest::Span, 1.0);
  }
  // Normalization conventions scale the exact value; HalfSum must be
  // exactly half of the raw average (§III-C "occasional division by 2").
  bfhrf_avg("bfhrf/span/half-sum",
            {.threads = 1, .norm = core::RfNorm::HalfSum}, Ingest::Span, 0.5);
  if (opts.check_compressed) {
    bfhrf_avg("bfhrf/compressed-keys", {.threads = 1, .compressed_keys = true},
              Ingest::Span, 1.0);
  }
  if (opts.check_streaming) {
    for (const std::size_t t : opts.thread_counts) {
      bfhrf_avg("bfhrf/stream-newick/t" + std::to_string(t), {.threads = t},
                Ingest::Newick, 1.0);
    }
  }

  if (opts.check_variants) {
    // One generalized-RF config through both engine families: the variant
    // hooks must behave identically on the hash-build and query sides.
    const std::size_t n_bits =
        reference.empty() ? 0 : reference[0].taxa()->size();
    const core::SizeFilteredRf variant(2, n_bits / 2 + 1);
    auto so = seq_base;
    so.variant = &variant;
    const auto ds = core::sequential_avg_rf(queries, reference, so);

    core::BfhrfOptions bo;
    bo.include_trivial = opts.include_trivial;
    bo.variant = &variant;
    core::Bfhrf engine(n_bits, bo);
    engine.build(reference);
    const auto bfh = engine.query(queries);
    compare_averages("bfhrf/size-filtered-vs-seq", ds.avg_rf, bfh, 1.0,
                     report);
  }
}

}  // namespace

std::string Divergence::to_string() const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%s vs %s at (%zu,%zu): expected %.17g, got %.17g",
                engine.c_str(), baseline.c_str(), i, j, expected, actual);
  return buf;
}

std::string OracleReport::summary() const {
  std::string out;
  if (ok()) {
    out = "oracle OK: " + std::to_string(engines.size()) + " engine runs, " +
          std::to_string(cells_checked) + " cells bit-identical over " +
          std::to_string(trees) + " trees";
  } else {
    out = "oracle FAILED: " + std::to_string(divergences.size()) +
          " divergence(s) across " + std::to_string(engines.size()) +
          " engine runs";
    const std::size_t show = std::min<std::size_t>(divergences.size(), 8);
    for (std::size_t i = 0; i < show; ++i) {
      out += "\n  " + divergences[i].to_string();
    }
    if (divergences.size() > show) {
      out += "\n  ... " + std::to_string(divergences.size() - show) + " more";
    }
  }
  if (seed != 0) {
    out += "\n  seed=" + format_seed(seed) +
           " (replay with --seed=" + format_seed(seed) + ")";
  }
  return out;
}

void compare_matrices(const std::string& engine, const std::string& baseline,
                      const core::RfMatrix& expected,
                      const core::RfMatrix& actual, OracleReport& report,
                      std::size_t limit) {
  report.engines.push_back(engine);
  if (expected.size() != actual.size()) {
    report.divergences.push_back({engine, baseline + " (matrix size)", 0, 0,
                                  static_cast<double>(expected.size()),
                                  static_cast<double>(actual.size())});
    return;
  }
  std::size_t recorded = 0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    for (std::size_t j = i + 1; j < expected.size(); ++j) {
      ++report.cells_checked;
      if (expected.at(i, j) != actual.at(i, j) && recorded < limit) {
        report.divergences.push_back(
            {engine, baseline, i, j, static_cast<double>(expected.at(i, j)),
             static_cast<double>(actual.at(i, j))});
        ++recorded;
      }
    }
  }
}

OracleReport cross_check_matrix(std::span<const phylo::Tree> trees,
                                const OracleOptions& opts) {
  OracleReport report;
  report.seed = opts.seed;
  report.trees = trees.size();
  if (trees.size() < 2) {
    return report;
  }
  const RfMatrix oracle = matrix_sequential(trees, opts.include_trivial);
  report.engines.push_back("sequential");
  run_matrix_engines(trees, opts, oracle, report);
  return report;
}

OracleReport cross_check(std::span<const phylo::Tree> reference,
                         std::span<const phylo::Tree> queries,
                         const OracleOptions& opts) {
  OracleReport report;
  report.seed = opts.seed;
  if (reference.empty()) {
    throw InvalidArgument("qc::cross_check: empty reference collection");
  }

  // Combined collection R ∪ Q (self case: queries empty, Q is R).
  std::vector<Tree> combined(reference.begin(), reference.end());
  const std::size_t q_offset = queries.empty() ? 0 : reference.size();
  combined.insert(combined.end(), queries.begin(), queries.end());
  report.trees = combined.size();

  const RfMatrix oracle =
      matrix_sequential(combined, opts.include_trivial);
  report.engines.push_back("sequential");
  run_matrix_engines(combined, opts, oracle, report);

  const std::span<const Tree> q =
      queries.empty() ? reference : queries;
  const std::vector<double> expected =
      expected_averages(oracle, reference.size(), q.size(), q_offset);
  run_average_engines(reference, q, opts, expected, report);
  return report;
}

}  // namespace bfhrf::qc
