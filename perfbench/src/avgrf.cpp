// avgrf_newick / avgrf_p2v_wide: the paper's Algorithm 2 end to end.
// Phase 1 builds BFH_R from a streamed reference file (setup_s); Phase 2
// streams the query file through the built hash for the whole window
// (ops_per_s = query trees per second over the whole window).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "core/sequential_rf.hpp"
#include "core/tree_source.hpp"
#include "phylo/newick.hpp"
#include "phylo/vector_codec.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = bfhrf::core;
namespace phylo = bfhrf::phylo;

namespace {

/// Query trees checked against the sequential oracle every run.
constexpr std::size_t kOracleSample = 8;

/// Reference trees resident at once while the oracle streams R.
constexpr std::size_t kOracleChunk = 250;

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Average RF of the first kOracleSample query trees against all of R by
/// core::sequential_avg_rf (Algorithm 1), R streamed in chunks. Each chunk's
/// average times its size recovers the integer RF sum exactly, so the
/// combined average is the same double the hash engine must produce.
std::vector<double> oracle_avg(const CorpusFile& ref, const CorpusFile& query,
                               const phylo::TaxonSetPtr& taxa,
                               std::size_t threads) {
  const std::vector<phylo::Tree> sample =
      read_prefix(query, taxa, kOracleSample);
  std::vector<double> sums(sample.size(), 0.0);
  std::size_t r = 0;
  const core::SequentialRfOptions opts{.threads = threads};
  auto fold = [&](const std::vector<phylo::Tree>& chunk) {
    const core::SequentialRfResult part =
        core::sequential_avg_rf(sample, chunk, opts);
    for (std::size_t i = 0; i < sample.size(); ++i) {
      sums[i] += std::round(part.avg_rf[i] * static_cast<double>(chunk.size()));
    }
    r += chunk.size();
  };
  std::vector<phylo::Tree> chunk;
  if (ref.vector) {
    std::ifstream in(ref.path, std::ios::binary);
    phylo::P2vReader reader(in);
    phylo::TreeVector row;
    while (reader.next(row)) {
      chunk.push_back(phylo::vector_to_tree(row, taxa));
      if (chunk.size() == kOracleChunk) {
        fold(chunk);
        chunk.clear();
      }
    }
  } else {
    std::ifstream in(ref.path);
    phylo::NewickReader reader(in, taxa);
    while (std::optional<phylo::Tree> t = reader.next()) {
      chunk.push_back(std::move(*t));
      if (chunk.size() == kOracleChunk) {
        fold(chunk);
        chunk.clear();
      }
    }
  }
  if (!chunk.empty()) {
    fold(chunk);
  }
  for (double& s : sums) {
    s /= static_cast<double>(r);
  }
  return sums;
}

}  // namespace

void run_avgrf(const RunConfig& cfg, Result& res, bool vector_input) {
  const std::string ext = vector_input ? ".p2v" : ".nwk";
  const CorpusFile ref{cfg.data_dir + "/ref" + ext, vector_input};
  const CorpusFile query{cfg.data_dir + "/query" + ext, vector_input};
  const Span workload_span(cfg.workload);

  // Set-up: Phase-1 build from the reference file, warm-ups plus K timed.
  EngineRun run;
  const std::vector<double> setup = repeat_setup([&] {
    run = EngineRun{};  // one engine alive at a time
    const Span span("core.bfhrf.build");
    run = build_engine(ref, cfg.threads);
    return run.build_s;
  });

  // Window: Phase-2 query passes; every pass must repeat the first exactly.
  std::vector<double> first;
  const Window window = run_window(cfg, [&] {
    {
      const Span span("core.bfhrf.query", workload_span.id());
      query_pass(run, query);
    }
    if (first.empty()) {
      first = run.avg;
    } else {
      res.check(bitwise_equal(run.avg, first),
                "query pass differs from the first pass");
    }
    return static_cast<double>(run.avg.size()) / run.query_s;
  });
  const std::vector<double>& rates = window.rates;
  // The measured engine's work is done: free it so the verification engines
  // below add nothing to peak_rss_mb.
  run.engine.reset();

  // Oracle: Algorithm 1 on a fixed query sample.
  std::vector<double> expected =
      oracle_avg(ref, query, run.taxa, cfg.threads);
  if (cfg.corrupt && !expected.empty()) {
    expected[0] += 1.0;
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    char what[160];
    std::snprintf(what, sizeof what,
                  "query %zu: bfhrf avg %.17g != sequential_avg_rf %.17g", i,
                  first[i], expected[i]);
    res.check(first[i] == expected[i], what);
  }

  // Thread-count invariance: a 1-thread build and query are bit-identical.
  EngineRun one = build_engine(ref, 1);
  query_pass(one, query);
  res.check(bitwise_equal(one.avg, first),
            "1-thread results differ from " + std::to_string(cfg.threads) +
                "-thread results");
  std::printf("# checksum %016llx\n",
              static_cast<unsigned long long>(
                  fnv1a(first.data(), first.size() * sizeof(double))));

  // Every pass streams the same query file, so trees over time is the
  // harmonic mean of the pass rates.
  const double trees_per_s = harmonic_mean(rates);
  res.metric("setup_s", median(setup), "s");
  res.metric("ops_per_s", trees_per_s, "1/s");
  std::printf(
      "# %s: trees_per_s %.1f over %zu passes of %zu query trees (pass "
      "rates q10 %.1f, median %.1f, q90 %.1f)\n",
      cfg.workload.c_str(), trees_per_s, rates.size(), first.size(),
      quantile(rates, 0.1), median(rates), quantile(rates, 0.9));
  if (cfg.trace) {
    std::vector<ScalingRow> scaling;
    profile_layers(ref, query, cfg, ProfileScope{}, res, scaling);
    res.metric("trace.overhead_frac",
               1.0 - harmonic_mean(window.traced_rates) / trees_per_s,
               "ratio");
    print_scaling(scaling);
  }
}

}  // namespace perfbench
