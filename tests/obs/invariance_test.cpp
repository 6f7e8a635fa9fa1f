// Instrumentation invariance: observability must never change results.
// The engines are run with metrics enabled and disabled (runtime kill
// switch) and their outputs compared bit-for-bit; both are also checked
// against the sequential ground truth. With -DBFHRF_OBS=OFF the kill
// switch is a no-op and the comparison degenerates to determinism across
// repeated runs — still a meaningful check.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "core/all_pairs.hpp"
#include "core/bfhrf.hpp"
#include "core/index_file.hpp"
#include "core/rf_matrix.hpp"
#include "core/sequential_rf.hpp"
#include "core/serialize.hpp"
#include "obs/metrics.hpp"
#include "support/test_util.hpp"
#include "util/rng.hpp"

namespace bfhrf {
namespace {

struct EngineOutputs {
  std::vector<double> avg;
  std::vector<double> avg_compressed;
  core::RfMatrix matrix;
};

EngineOutputs run_engines(const std::vector<phylo::Tree>& trees) {
  EngineOutputs out;
  out.avg = core::bfhrf_average_rf(trees, trees, {.threads = 4});
  out.avg_compressed =
      core::bfhrf_average_rf(trees, trees,
                             {.threads = 4, .compressed_keys = true});
  out.matrix = core::all_pairs_rf(trees, {.threads = 4});
  return out;
}

bool bit_identical(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(ObsInvariance, RfOutputsIdenticalWithMetricsOnAndOff) {
  const auto taxa = phylo::TaxonSet::make_numbered(24);
  util::Rng rng(0x0B5ECAFE);
  const auto trees = test::random_collection(taxa, 24, 4, rng);

  obs::set_enabled(true);
  const EngineOutputs on = run_engines(trees);
  obs::set_enabled(false);
  const EngineOutputs off = run_engines(trees);
  obs::set_enabled(true);

  EXPECT_TRUE(bit_identical(on.avg, off.avg));
  EXPECT_TRUE(bit_identical(on.avg_compressed, off.avg_compressed));
  ASSERT_EQ(on.matrix.size(), off.matrix.size());
  for (std::size_t i = 0; i < on.matrix.size(); ++i) {
    for (std::size_t j = i + 1; j < on.matrix.size(); ++j) {
      ASSERT_EQ(on.matrix.at(i, j), off.matrix.at(i, j))
          << "matrix divergence at (" << i << ", " << j << ")";
    }
  }

  // Both instrumented and uninstrumented runs must match the sequential
  // ground truth — invariance alone would also pass if both were wrong.
  const auto seq = core::sequential_avg_rf(trees, trees).avg_rf;
  ASSERT_EQ(on.avg.size(), seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_DOUBLE_EQ(on.avg[i], seq[i]) << "query tree " << i;
    EXPECT_DOUBLE_EQ(on.avg_compressed[i], seq[i]) << "query tree " << i;
  }
}

TEST(ObsInvariance, MetricsActuallyRecordWhenEnabled) {
  // Guards the test above against vacuous success: with the layer compiled
  // in and enabled, running the engine must move the counters.
  if (!obs::compiled_in()) {
    GTEST_SKIP() << "observability compiled out";
  }
  obs::reset();
  obs::set_enabled(true);
  const auto taxa = phylo::TaxonSet::make_numbered(16);
  util::Rng rng(0x0B5);
  const auto trees = test::random_collection(taxa, 8, 3, rng);
  const auto avg = core::bfhrf_average_rf(trees, trees, {.threads = 2});
  ASSERT_EQ(avg.size(), trees.size());
  EXPECT_EQ(obs::counter_value("bfhrf.build.trees"), trees.size());
  EXPECT_EQ(obs::counter_value("bfhrf.query.trees"), trees.size());
  EXPECT_GT(obs::counter_value("core.frequency_hash.probes"), 0u);
  const auto snap = obs::snapshot();
  bool unique_gauge_seen = false;
  for (const auto& [name, v] : snap.gauges) {
    if (name == "bfhrf.unique_bipartitions") {
      unique_gauge_seen = true;
      EXPECT_GT(v, 0.0);
    }
  }
  EXPECT_TRUE(unique_gauge_seen);

  // Build-path identity: a sharded build flushes every key it routes into
  // its shard exactly once, during the pipeline or in the residue drain,
  // so the flushed keys equal sumBFHR of the inline one-table build (which
  // routes nothing).
  // Query-path identities: every query tree on a raw-key store is one
  // prefetch batch, and every split it looks up goes through that batch.
  core::Bfhrf inline_engine(taxa->size(), {.threads = 1});
  inline_engine.build(trees);
  const std::uint64_t sum_bfhr = inline_engine.stats().total_bipartitions;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    obs::reset();
    core::Bfhrf engine(taxa->size(), {.threads = threads});
    engine.build(trees);
    EXPECT_EQ(engine.store().shard_count(),
              test::expected_shards(threads));
    EXPECT_EQ(obs::counter_value("bfhrf.build.shard.keys"),
              test::expected_shards(threads) > 1 ? sum_bfhr : 0u);
    obs::reset();
    const auto rf = engine.query(std::span<const phylo::Tree>(trees));
    ASSERT_EQ(rf.size(), trees.size());
    EXPECT_EQ(obs::counter_value("bfhrf.query.trees"), trees.size());
    EXPECT_GT(obs::counter_value("bfhrf.query.bipartitions"), 0u);
    EXPECT_EQ(obs::counter_value("bfhrf.query.prefetch.bipartitions"),
              obs::counter_value("bfhrf.query.bipartitions"));
    EXPECT_EQ(obs::counter_value("bfhrf.query.prefetch.batches"),
              obs::counter_value("bfhrf.query.trees"));
  }
}

TEST(ObsInvariance, EveryLookupProbesItsHomeGroupOnce) {
  // One lookup pipeline serves every store: one table or 4 shards, built
  // or mapped from a saved file, raw or compressed keys. It counts every
  // probe under core.frequency_hash.*, where each key inspects its home
  // group once and collisions count the groups beyond it, so over one
  // query probes - collisions is the number of keys looked up.
  if (!obs::compiled_in()) {
    GTEST_SKIP() << "observability compiled out";
  }
  obs::set_enabled(true);
  const auto taxa = phylo::TaxonSet::make_numbered(40);
  util::Rng rng(0x9B0BE5);
  const auto trees = test::random_collection(taxa, 40, 6, rng);
  struct Cleanup {
    std::string path;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::remove(path, ec);
    }
  } file{::testing::TempDir() + "bfhrf_probes_" +
         std::to_string(::getpid()) + ".bfi"};
  for (const bool compressed : {false, true}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const core::BfhrfOptions opts{.threads = threads,
                                    .compressed_keys = compressed};
      core::Bfhrf built(taxa->size(), opts);
      built.build(trees);
      ASSERT_EQ(built.store().shard_count(), test::expected_shards(threads));
      core::save_bfhrf_file(built, file.path);
      const core::Bfhrf loaded = core::load_bfhrf_file(file.path, opts);
      const core::Bfhrf* const engines[] = {&built, &loaded};
      for (const core::Bfhrf* engine : engines) {
        SCOPED_TRACE(std::string(engine == &built ? "built" : "loaded") +
                     " threads=" + std::to_string(threads) +
                     " compressed=" + std::to_string(compressed));
        const std::uint64_t probes0 =
            obs::counter_value("core.frequency_hash.probes");
        const std::uint64_t collisions0 =
            obs::counter_value("core.frequency_hash.collisions");
        const std::uint64_t keys0 =
            obs::counter_value("bfhrf.query.prefetch.bipartitions");
        const auto rf = engine->query(std::span<const phylo::Tree>(trees));
        ASSERT_EQ(rf.size(), trees.size());
        const std::uint64_t probes =
            obs::counter_value("core.frequency_hash.probes") - probes0;
        const std::uint64_t collisions =
            obs::counter_value("core.frequency_hash.collisions") -
            collisions0;
        const std::uint64_t keys =
            obs::counter_value("bfhrf.query.prefetch.bipartitions") - keys0;
        EXPECT_GT(keys, 0u);
        EXPECT_EQ(probes - collisions, keys);
      }
    }
  }
}

/// Check every table-shape gauge against `engine`'s store view: shard
/// count, slots, keys, balance and bytes. Probe lengths are scanned only
/// for an inline build's single table; every other shape publishes 0.
void expect_shape_gauges(const core::Bfhrf& engine, bool scanned) {
  const core::BfhIndexView& store = engine.store();
  const auto keys = static_cast<double>(store.unique_count());
  const auto slots = static_cast<double>(store.capacity_slots());
  ASSERT_GT(keys, 0.0);
  EXPECT_EQ(obs::gauge_value("bfhrf.build.shard.count"),
            static_cast<double>(store.shard_count()));
  EXPECT_EQ(obs::gauge_value("bfhrf.hash.capacity_slots"), slots);
  EXPECT_DOUBLE_EQ(obs::gauge_value("bfhrf.hash.load_factor"), keys / slots);
  EXPECT_DOUBLE_EQ(obs::gauge_value("bfhrf.build.shard.skew"),
                   store.shard_skew());
  EXPECT_EQ(obs::gauge_value("bfhrf.unique_bipartitions"), keys);
  EXPECT_EQ(obs::gauge_value("bfhrf.hash.resident_bytes"),
            static_cast<double>(store.memory_bytes()));
  if (scanned) {
    EXPECT_GE(obs::gauge_value("bfhrf.hash.mean_probe_groups"), 1.0);
    EXPECT_GE(obs::gauge_value("bfhrf.hash.max_probe_groups"), 1.0);
  } else {
    EXPECT_EQ(obs::gauge_value("bfhrf.hash.mean_probe_groups"), 0.0);
    EXPECT_EQ(obs::gauge_value("bfhrf.hash.max_probe_groups"), 0.0);
  }
}

TEST(ObsInvariance, TableShapeGaugesFollowTheLatestStore) {
  // A build at 4 threads, a smaller one at 1 thread, then a load of the
  // first build's file: after each step every table-shape gauge must be
  // that step's store's own number, not one left by an earlier engine.
  // Every save is one table sized for its keys, so the one-table build
  // and the loaded file are also checked against the file's own record.
  if (!obs::compiled_in()) {
    GTEST_SKIP() << "observability compiled out";
  }
  obs::reset();
  obs::set_enabled(true);
  const auto taxa = phylo::TaxonSet::make_numbered(40);
  util::Rng rng(0x6A06E);
  const auto wide = test::random_collection(taxa, 60, 8, rng);
  const auto narrow = test::random_collection(taxa, 10, 2, rng);
  const std::string base = ::testing::TempDir() + "bfhrf_gauges_" +
                           std::to_string(::getpid());
  struct Cleanup {
    std::vector<std::string> paths;
    ~Cleanup() {
      for (const std::string& p : paths) {
        std::error_code ec;
        std::filesystem::remove(p, ec);
      }
    }
  } files{{base + "_t4.bfi", base + "_t1.bfi"}};

  core::Bfhrf sharded(taxa->size(), {.threads = 4});
  sharded.build(wide);
  ASSERT_EQ(sharded.store().shard_count(), test::expected_shards(4));
  {
    SCOPED_TRACE("-t 4 build");
    expect_shape_gauges(sharded, sharded.store().shard_count() == 1);
  }
  core::save_bfhrf_file(sharded, files.paths[0]);

  core::Bfhrf single(taxa->size(), {.threads = 1});
  single.build(narrow);
  {
    SCOPED_TRACE("-t 1 build");
    expect_shape_gauges(single, true);
    core::save_bfhrf_file(single, files.paths[1]);
    const core::MappedIndex index(files.paths[1]);
    EXPECT_EQ(obs::gauge_value("bfhrf.hash.capacity_slots"),
              static_cast<double>(index.table().slot_count));
  }

  const core::Bfhrf loaded = core::load_bfhrf_file(files.paths[0]);
  {
    SCOPED_TRACE("load of the -t 4 file");
    expect_shape_gauges(loaded, false);
    const core::MappedIndex index(files.paths[0]);
    EXPECT_EQ(obs::gauge_value("bfhrf.build.shard.count"), 1.0);
    EXPECT_EQ(obs::gauge_value("bfhrf.build.shard.skew"), 1.0);
    EXPECT_EQ(obs::gauge_value("bfhrf.hash.capacity_slots"),
              static_cast<double>(index.table().slot_count));
    EXPECT_EQ(obs::gauge_value("bfhrf.unique_bipartitions"),
              static_cast<double>(index.table().live_keys));
    EXPECT_EQ(index.table().live_keys, sharded.store().unique_count());
    EXPECT_EQ(loaded.store().memory_bytes(),
              std::filesystem::file_size(files.paths[0]));
  }
}

}  // namespace
}  // namespace bfhrf
