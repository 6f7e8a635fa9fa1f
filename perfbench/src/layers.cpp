// Layer probes for traced runs. Each probe times calls into one layer's
// public functions from outside and wraps them in spans; nothing inside
// the engine is instrumented beyond what the obs registry already records.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/all_pairs.hpp"
#include "core/bit_matrix.hpp"
#include "core/frequency_hash.hpp"
#include "core/serialize.hpp"
#include "core/tree_source.hpp"
#include "phylo/newick.hpp"
#include "phylo/vector_codec.hpp"
#include "util/bitset.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = bfhrf::core;
namespace obs = bfhrf::obs;
namespace phylo = bfhrf::phylo;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/// Trees in the cross-format and all-pairs samples: about 150k taxa in
/// total, so the n = 1000 corpus samples 150 trees and n = 144 about 1000.
std::size_t sample_size(std::size_t n_taxa) {
  return std::max<std::size_t>(100, 150000 / std::max<std::size_t>(n_taxa, 1));
}

/// 1-thread replay of the build's stages over the whole reference: read
/// (the source's size hint, which the build sizes its tables from, then
/// parse or decode), extract (unsorted, as classic RF does), insert
/// (FrequencyHash::add_many); then a second pass timing frequency_many on
/// the same keys against the finished table.
struct StageReplay {
  double read_s = 0;
  double extract_s = 0;
  double insert_s = 0;
  double probe_s = 0;
  std::uint64_t trees = 0;
  std::uint64_t keys = 0;
  double load_factor = 0;
};

StageReplay replay_stages(const CorpusFile& ref) {
  const Span span("core.bfhrf.stage_replay");
  StageReplay out;
  const phylo::TaxonSetPtr taxa = corpus_taxa(ref);
  core::FrequencyHash hash(taxa->size());
  const phylo::BipartitionOptions opts{.sorted = false};
  phylo::BipartitionSet set;
  std::vector<std::uint32_t> freqs;
  out.read_s = time_s([&] {
    if (ref.vector) {
      (void)core::P2vFileSource(ref.path).size_hint();
    } else {
      (void)core::FileTreeSource(ref.path, taxa).size_hint();
    }
  });
  for (int pass = 0; pass < 2; ++pass) {
    const bool probe = pass == 1;
    auto stage = [&](auto&& fn, double& acc) {
      const Clock::time_point t0 = Clock::now();
      fn();
      if (!probe) {
        acc += seconds_since(t0);
      }
    };
    auto consume = [&] {
      const bfhrf::util::ConstWordSpan keys = set.arena_view();
      if (!probe) {
        const Clock::time_point t0 = Clock::now();
        hash.add_many(keys.data(), set.size(), nullptr);
        out.insert_s += seconds_since(t0);
        ++out.trees;
        out.keys += set.size();
      } else {
        freqs.resize(set.size());
        const Clock::time_point t0 = Clock::now();
        hash.frequency_many(keys.data(), set.size(), freqs.data());
        out.probe_s += seconds_since(t0);
      }
    };
    if (ref.vector) {
      std::ifstream in(ref.path, std::ios::binary);
      phylo::P2vReader reader(in);
      phylo::VectorBipartitionExtractor ex;
      phylo::TreeVector row;
      const Span s(probe ? "core.frequency_hash.probe" : "phylo.vector_codec");
      while (true) {
        bool more = false;
        stage([&] { more = reader.next(row); }, out.read_s);
        if (!more) {
          break;
        }
        stage([&] { ex.extract_into(row, opts, set); }, out.extract_s);
        consume();
      }
    } else {
      std::ifstream in(ref.path);
      phylo::NewickReader reader(in, taxa);
      phylo::BipartitionExtractor ex;
      std::optional<phylo::Tree> tree;
      const Span s(probe ? "core.frequency_hash.probe" : "phylo.newick");
      while (true) {
        stage([&] { tree = reader.next(); }, out.read_s);
        if (!tree) {
          break;
        }
        stage([&] { ex.extract_into(*tree, opts, set); }, out.extract_s);
        consume();
      }
    }
  }
  out.load_factor = hash.load_factor();
  return out;
}

/// Per-tree Newick parse and extraction over in-memory text.
void profile_newick_text(const std::string& text, const phylo::TaxonSetPtr& taxa,
                         Result& res) {
  std::istringstream in(text);
  phylo::NewickReader reader(in, taxa);
  std::vector<phylo::Tree> trees;
  const double parse_s = time_s([&] {
    const Span span("phylo.newick");
    while (std::optional<phylo::Tree> t = reader.next()) {
      trees.push_back(std::move(*t));
    }
  });
  phylo::BipartitionExtractor ex;
  phylo::BipartitionSet set;
  const double extract_s = time_s([&] {
    const Span span("phylo.bipartition");
    for (const phylo::Tree& t : trees) {
      ex.extract_into(t, {.sorted = false}, set);
    }
  });
  const auto n = static_cast<double>(trees.size());
  res.metric("phylo.newick.parse_us_per_tree", parse_s / n * 1e6, "us");
  res.metric("phylo.newick.mb_per_s",
             static_cast<double>(text.size()) / kMiB / parse_s, "MB/s");
  res.metric("phylo.bipartition.extract_us_per_tree", extract_s / n * 1e6,
             "us");
}

/// Per-row .p2v decode and direct extraction over an in-memory corpus.
void profile_vector_bytes(const std::string& bytes, Result& res) {
  std::istringstream in(bytes);
  phylo::P2vReader reader(in);
  std::vector<phylo::TreeVector> rows;
  phylo::TreeVector row;
  const double decode_s = time_s([&] {
    const Span span("phylo.vector_codec.decode");
    while (reader.next(row)) {
      rows.push_back(row);
    }
  });
  phylo::VectorBipartitionExtractor ex;
  phylo::BipartitionSet set;
  const double extract_s = time_s([&] {
    const Span span("phylo.vector_codec.extract");
    for (const phylo::TreeVector& v : rows) {
      ex.extract_into(v, {.sorted = false}, set);
    }
  });
  const auto n = static_cast<double>(rows.size());
  res.metric("phylo.vector.decode_us_per_tree", decode_s / n * 1e6, "us");
  res.metric("phylo.vector.extract_us_per_tree", extract_s / n * 1e6, "us");
}

/// Newick records of `trees` (one string per tree).
std::vector<std::string> newick_records(std::span<const phylo::Tree> trees) {
  std::vector<std::string> out;
  out.reserve(trees.size());
  for (const phylo::Tree& t : trees) {
    out.push_back(phylo::write_newick(t, {.write_lengths = false}));
  }
  return out;
}

std::vector<phylo::BipartitionSet> sorted_sets(
    std::span<const phylo::Tree> trees) {
  std::vector<phylo::BipartitionSet> sets(trees.size());
  phylo::BipartitionExtractor ex;
  for (std::size_t i = 0; i < trees.size(); ++i) {
    ex.extract_into(trees[i], {}, sets[i]);
  }
  return sets;
}

}  // namespace

// --- engine helpers ---------------------------------------------------------

phylo::TaxonSetPtr corpus_taxa(const CorpusFile& f) {
  if (f.vector) {
    const phylo::P2vHeader h = phylo::read_p2v_header(f.path);
    return h.labels.empty() ? phylo::TaxonSet::make_numbered(h.n_taxa)
                            : std::make_shared<phylo::TaxonSet>(h.labels);
  }
  auto taxa = std::make_shared<phylo::TaxonSet>();
  std::ifstream in(f.path);
  phylo::NewickReader reader(in, taxa);
  (void)reader.next();
  return taxa;
}

EngineRun build_engine(const CorpusFile& ref, std::size_t threads) {
  EngineRun run;
  const core::BfhrfOptions opts{.threads = threads};
  obs::reset();
  const Clock::time_point start = Clock::now();
  run.taxa = corpus_taxa(ref);
  run.engine.emplace(run.taxa->size(), opts);
  if (ref.vector) {
    core::P2vFileSource src(ref.path);
    run.engine->build(src);
  } else {
    core::FileTreeSource src(ref.path, run.taxa);
    run.engine->build(src);
  }
  run.build_s = seconds_since(start);
  const obs::Snapshot snap = obs::snapshot();
  run.consumer_wait_s =
      obs_hist_sum(snap, "parallel.pipeline.queue.consumer_wait_seconds");
  run.producer_stall_s =
      obs_hist_sum(snap, "parallel.pipeline.queue.producer_stall_seconds");
  run.pool_idle_s =
      static_cast<double>(obs_counter(snap, "parallel.pool.idle_us")) * 1e-6;
  return run;
}

void query_pass(EngineRun& run, const CorpusFile& query) {
  const Clock::time_point start = Clock::now();
  if (query.vector) {
    core::P2vFileSource src(query.path);
    run.avg = run.engine->query(src);
  } else {
    core::FileTreeSource src(query.path, run.taxa);
    run.avg = run.engine->query(src);
  }
  run.query_s = seconds_since(start);
}

std::vector<phylo::Tree> read_prefix(const CorpusFile& f,
                                     const phylo::TaxonSetPtr& taxa,
                                     std::size_t count) {
  std::vector<phylo::Tree> trees;
  if (f.vector) {
    std::ifstream in(f.path, std::ios::binary);
    phylo::P2vReader reader(in);
    phylo::TreeVector row;
    while (trees.size() < count && reader.next(row)) {
      trees.push_back(phylo::vector_to_tree(row, taxa));
    }
  } else {
    std::ifstream in(f.path);
    phylo::NewickReader reader(in, taxa);
    while (trees.size() < count) {
      std::optional<phylo::Tree> t = reader.next();
      if (!t) {
        break;
      }
      trees.push_back(std::move(*t));
    }
  }
  return trees;
}

void print_scaling(const std::vector<ScalingRow>& rows) {
  std::printf("# scaling: %-28s %14s %14s %10s %10s\n", "stage", "1",
              "N", "speedup", "unit");
  for (const ScalingRow& r : rows) {
    std::printf("# scaling: %-28s %14.2f %14.2f %9.2fx %10s  (N=%zu)\n",
                r.what.c_str(), r.one, r.many, r.many / r.one, r.unit.c_str(),
                r.many_count);
  }
}

// --- probes -----------------------------------------------------------------

void profile_matrix(std::span<const phylo::BipartitionSet> sets,
                    const RunConfig& cfg, double tn_s, Result& res,
                    std::vector<ScalingRow>& scaling) {
  const Span span("core.bit_matrix");
  const double pairs = static_cast<double>(sets.size()) *
                       static_cast<double>(sets.size() - 1) / 2.0;
  core::UniverseStats stats;
  auto run_at = [&](std::size_t threads) {
    core::AllPairsOptions opts;
    opts.threads = threads;
    obs::reset();
    return time_s([&] { (void)core::bit_matrix_rf(sets, opts, &stats); });
  };
  const double t1_s = run_at(1);
  const double tn_once_s = run_at(cfg.threads);
  const obs::Snapshot snap = obs::snapshot();  // the N-thread run's counters
  const double tn = tn_s > 0 ? tn_s : tn_once_s;
  const bool dense = obs_counter(snap, "bfhrf.matrix.engine.dense") > 0;
  const double words = static_cast<double>(
      bfhrf::util::words_for_bits(stats.universe_width));
  const double mean_fill = static_cast<double>(stats.total_memberships) /
                           static_cast<double>(stats.trees);
  const auto tiles = static_cast<double>(obs_counter(snap, "bfhrf.matrix.tiles"));
  res.metric("core.matrix.encode_s",
             obs_hist_sum(snap, "bfhrf.matrix.encode.seconds"), "s");
  res.metric("core.matrix.tile_s",
             obs_hist_sum(snap, "bfhrf.matrix.tile.seconds"), "s");
  res.metric("core.matrix.ns_per_pair_t1", t1_s / pairs * 1e9, "ns");
  res.metric("core.matrix.ns_per_pair_tN", tn / pairs * 1e9, "ns");
  res.metric("core.matrix.scaling_eff",
             t1_s / (static_cast<double>(cfg.threads) * tn), "ratio");
  res.metric("core.matrix.universe_width",
             static_cast<double>(stats.universe_width), "count");
  res.metric("core.matrix.density", stats.density(), "ratio");
  res.metric("core.matrix.dense", dense ? 1.0 : 0.0, "count");
  res.metric("core.matrix.steal_frac",
             tiles > 0 ? static_cast<double>(obs_counter(
                             snap, "bfhrf.matrix.tiles_stolen")) /
                             tiles
                       : 0.0,
             "ratio");
  // Computed, not measured: the two rows (dense words or sparse ids) one
  // pair comparison reads.
  res.metric("core.matrix.computed_bytes_per_pair",
             dense ? 2.0 * words * 8.0 : 2.0 * mean_fill * 4.0, "B");
  scaling.push_back({"all-pairs (pairs/s)", pairs / t1_s, pairs / tn, "1/s",
                     cfg.threads});
}

void profile_index(const core::Bfhrf& engine, const phylo::TaxonSetPtr& taxa,
                   const RunConfig& cfg, Result& res) {
  const Span span("core.index_file");
  const std::string path = cfg.data_dir + "/profile.bfhmap";
  std::vector<double> save;
  std::vector<double> open;
  for (int rep = 0; rep < 3; ++rep) {
    save.push_back(time_s([&] {
      core::save_bfhrf_file(engine, path, core::IndexFormat::Mapped);
    }));
  }
  for (int rep = 0; rep < 5; ++rep) {
    open.push_back(
        time_s([&] { (void)core::IndexSnapshot::open(path, taxa); }));
  }
  res.metric("core.index.save_s", median(save), "s");
  res.metric("core.index.open_ms", median(open) * 1e3, "ms");
  res.metric("core.index.file_mb",
             static_cast<double>(std::filesystem::file_size(path)) / kMiB,
             "MB");
  std::filesystem::remove(path);
}

void profile_layers(const CorpusFile& ref, const CorpusFile& query,
                    const RunConfig& cfg, ProfileScope scope, Result& res,
                    std::vector<ScalingRow>& scaling) {
  const Span span("profile");

  // core.bfhrf + parallel.pipeline: N-thread and 1-thread build and query.
  EngineRun many = build_engine(ref, cfg.threads);
  query_pass(many, query);
  EngineRun one = build_engine(ref, 1);
  query_pass(one, query);
  const auto n = static_cast<double>(cfg.threads);
  const auto q = static_cast<double>(many.avg.size());
  res.metric("core.bfhrf.build_t1_s", one.build_s, "s");
  res.metric("core.bfhrf.build_tN_s", many.build_s, "s");
  res.metric("core.bfhrf.build_scaling_eff", one.build_s / (n * many.build_s),
             "ratio");
  res.metric("core.bfhrf.query_scaling_eff", one.query_s / (n * many.query_s),
             "ratio");
  res.metric("parallel.pipeline.consumer_wait_s", many.consumer_wait_s, "s");
  res.metric("parallel.pipeline.producer_stall_s", many.producer_stall_s, "s");
  // Worker idle time (pipeline consumers waiting for trees plus thread-pool
  // idle) over worker-thread time during the N-thread build.
  res.metric("parallel.pool.idle_frac",
             (many.consumer_wait_s + many.pool_idle_s) / (n * many.build_s),
             "ratio");
  const core::BfhrfStats stats = many.engine->stats();
  const auto r = static_cast<double>(stats.reference_trees);
  scaling.push_back({"build (trees/s)", r / one.build_s, r / many.build_s,
                     "1/s", cfg.threads});
  scaling.push_back({"query (trees/s)", q / one.query_s, q / many.query_s,
                     "1/s", cfg.threads});

  // Stage replays: read + extract + insert should cover the 1-thread build.
  const StageReplay st = replay_stages(ref);
  const auto trees = static_cast<double>(st.trees);
  const auto keys = static_cast<double>(st.keys);
  const double coverage =
      (st.read_s + st.extract_s + st.insert_s) / one.build_s;
  res.metric("core.bfhrf.stage_coverage", coverage, "ratio");
  if (coverage < 0.95) {
    std::printf(
        "# WARNING: stage replays cover %.1f%% of the 1-thread build "
        "(read %.3f s + extract %.3f s + insert %.3f s vs %.3f s)\n",
        coverage * 100, st.read_s, st.extract_s, st.insert_s, one.build_s);
  }
  res.metric("core.hash.insert_ns_per_key", st.insert_s / keys * 1e9, "ns");
  res.metric("core.hash.probe_ns_per_key", st.probe_s / keys * 1e9, "ns");
  res.metric("core.hash.unique_keys",
             static_cast<double>(stats.unique_bipartitions), "count");
  res.metric("core.hash.memory_mb",
             static_cast<double>(stats.hash_memory_bytes) / kMiB, "MB");
  res.metric("core.hash.load_factor", st.load_factor, "ratio");
  res.metric("phylo.splits_per_tree", keys / trees, "count");

  // Both front ends: the corpus's own format from the replay above, the
  // other one over a converted sample of it.
  const std::vector<phylo::Tree> sample =
      read_prefix(ref, many.taxa, sample_size(many.taxa->size()));
  if (ref.vector) {
    res.metric("phylo.vector.decode_us_per_tree", st.read_s / trees * 1e6,
               "us");
    res.metric("phylo.vector.extract_us_per_tree", st.extract_s / trees * 1e6,
               "us");
    std::string text;
    for (const std::string& rec : newick_records(sample)) {
      text += rec;
      text += '\n';
    }
    profile_newick_text(
        text, std::make_shared<phylo::TaxonSet>(many.taxa->labels()), res);
  } else {
    res.metric("phylo.newick.parse_us_per_tree", st.read_s / trees * 1e6,
               "us");
    res.metric("phylo.newick.mb_per_s",
               static_cast<double>(std::filesystem::file_size(ref.path)) /
                   kMiB / st.read_s,
               "MB/s");
    res.metric("phylo.bipartition.extract_us_per_tree",
               st.extract_s / trees * 1e6, "us");
    std::ostringstream p2v;
    phylo::P2vWriter writer(p2v, static_cast<std::uint32_t>(many.taxa->size()),
                            many.taxa->labels());
    for (const phylo::Tree& t : sample) {
      writer.write(phylo::tree_to_vector(t));
    }
    writer.finish();
    profile_vector_bytes(p2v.str(), res);
  }

  if (scope.matrix) {
    profile_matrix(sorted_sets(sample), cfg, 0.0, res, scaling);
  }
  profile_index(*many.engine, many.taxa, cfg, res);

  if (scope.serve) {
    // A short swap session over this corpus: two copies of one index, so
    // every response has one expected value whichever copy answers.
    ServeInputs inputs;
    inputs.taxa = many.taxa;
    const std::vector<phylo::Tree> qs = read_prefix(query, many.taxa, 64);
    inputs.queries = newick_records(qs);
    for (std::size_t i = 0; i < 2; ++i) {
      inputs.index_paths[i] =
          cfg.data_dir + "/profile" + std::to_string(i) + ".bfhmap";
      core::save_bfhrf_file(*many.engine, inputs.index_paths[i],
                            core::IndexFormat::Mapped);
    }
    inputs.initial = std::make_shared<const core::IndexSnapshot>(
        std::move(*many.engine), many.taxa, "profile");
    many.engine.reset();
    obs::reset();  // before the server's threads exist (see run_serve)
    std::unique_ptr<bfhrf::serve::RfServer> server = start_server(inputs);
    const ServeWindow w =
        serve_window(inputs, *server, 2, 1.5, cfg, res);
    server->stop();
    serve_layer_metrics(inputs, w, res);
    for (const std::string& p : inputs.index_paths) {
      std::filesystem::remove(p);
    }
  }
}

}  // namespace perfbench
