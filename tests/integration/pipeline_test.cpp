// End-to-end pipelines: Newick files on disk -> streaming sources ->
// engines -> identical answers across every implementation.
#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include <unistd.h>

#include "core/bfhrf.hpp"
#include "core/day.hpp"
#include "core/hashrf.hpp"
#include "core/sequential_rf.hpp"
#include "core/tree_source.hpp"
#include "phylo/newick.hpp"
#include "sim/datasets.hpp"
#include "support/test_util.hpp"
#include "util/rng.hpp"

namespace bfhrf {
namespace {

using core::Bfhrf;
using phylo::TaxonSet;
using phylo::Tree;

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir();
    taxa_ = TaxonSet::make_numbered(18);
    util::Rng rng(99);
    reference_ = test::random_collection(taxa_, 40, 4, rng, true);
    queries_ = test::random_collection(taxa_, 15, 6, rng, true);
    // ctest runs each TEST_F as its own process, concurrently; the paths
    // must be per-process or parallel runs race on the shared tmp dir.
    const std::string tag = std::to_string(::getpid());
    ref_path_ = dir_ + "/bfhrf_ref_" + tag + ".nwk";
    query_path_ = dir_ + "/bfhrf_query_" + tag + ".nwk";
    phylo::write_newick_file(ref_path_, reference_);
    phylo::write_newick_file(query_path_, queries_);
  }

  std::string dir_;
  phylo::TaxonSetPtr taxa_;
  std::vector<Tree> reference_;
  std::vector<Tree> queries_;
  std::string ref_path_;
  std::string query_path_;
};

TEST_F(PipelineTest, FileStreamingMatchesInMemory) {
  Bfhrf from_memory(taxa_->size(), {.threads = 2});
  from_memory.build(reference_);
  const auto want = from_memory.query(queries_);

  Bfhrf from_files(taxa_->size(), {.threads = 2});
  core::FileTreeSource ref_source(ref_path_, taxa_);
  from_files.build(ref_source);
  core::FileTreeSource query_source(query_path_, taxa_);
  const auto got = from_files.query(query_source);

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i], want[i]);
  }
}

TEST_F(PipelineTest, FileSourceResetsCleanly) {
  core::FileTreeSource source(ref_path_, taxa_);
  std::size_t first_pass = 0;
  Tree t;
  while (source.next(t)) {
    ++first_pass;
  }
  source.reset();
  std::size_t second_pass = 0;
  while (source.next(t)) {
    ++second_pass;
  }
  EXPECT_EQ(first_pass, reference_.size());
  EXPECT_EQ(second_pass, reference_.size());
}

TEST_F(PipelineTest, AllEnginesAgreeOnQIsR) {
  // DS == DSMP == HashRF row-means == BFHRF, on the same file-backed data.
  const auto ds = core::sequential_avg_rf(reference_, reference_,
                                          {.threads = 1});
  const auto dsmp = core::sequential_avg_rf(reference_, reference_,
                                            {.threads = 4});
  const auto day = core::sequential_avg_rf(
      reference_, reference_,
      {.threads = 1, .engine = core::PairwiseEngine::Day});
  const auto hashrf = core::hash_rf(reference_);
  const auto bfh = core::bfhrf_average_rf(reference_, reference_,
                                          {.threads = 2});

  for (std::size_t i = 0; i < reference_.size(); ++i) {
    EXPECT_DOUBLE_EQ(ds.avg_rf[i], dsmp.avg_rf[i]) << i;
    EXPECT_DOUBLE_EQ(ds.avg_rf[i], day.avg_rf[i]) << i;
    EXPECT_DOUBLE_EQ(ds.avg_rf[i], hashrf.avg_rf[i]) << i;
    EXPECT_DOUBLE_EQ(ds.avg_rf[i], bfh[i]) << i;
  }
}

TEST_F(PipelineTest, AllEnginesAgreeOnDisjointQandR) {
  // HashRF cannot do different Q/R (the paper's §VII-D complaint); the
  // other three must agree.
  const auto ds = core::sequential_avg_rf(queries_, reference_);
  const auto day = core::sequential_avg_rf(
      queries_, reference_, {.engine = core::PairwiseEngine::Day});
  const auto bfh = core::bfhrf_average_rf(queries_, reference_);
  for (std::size_t i = 0; i < queries_.size(); ++i) {
    EXPECT_DOUBLE_EQ(ds.avg_rf[i], day.avg_rf[i]) << i;
    EXPECT_DOUBLE_EQ(ds.avg_rf[i], bfh[i]) << i;
  }
}

TEST_F(PipelineTest, FrozenTaxaCatchForeignTrees) {
  auto frozen = std::make_shared<TaxonSet>(taxa_->labels());
  frozen->freeze();
  core::FileTreeSource source(ref_path_, frozen);
  Tree t;
  EXPECT_TRUE(source.next(t));  // known taxa stream fine

  const std::string bad_path =
      dir_ + "/bfhrf_bad_" + std::to_string(::getpid()) + ".nwk";
  {
    std::ofstream out(bad_path);
    out << "((t0,t1),(t2,WRONG));\n";
  }
  core::FileTreeSource bad(bad_path, frozen);
  EXPECT_THROW((void)bad.next(t), InvalidArgument);
}

TEST(PipelineDatasetTest, GeneratedDatasetThroughAllEngines) {
  const sim::Dataset ds = sim::generate(sim::variable_trees(25));
  const auto seq = core::sequential_avg_rf(ds.trees, ds.trees);
  const auto hashrf = core::hash_rf(ds.trees);
  const auto bfh = core::bfhrf_average_rf(ds.trees, ds.trees);
  for (std::size_t i = 0; i < ds.trees.size(); ++i) {
    EXPECT_DOUBLE_EQ(seq.avg_rf[i], hashrf.avg_rf[i]);
    EXPECT_DOUBLE_EQ(seq.avg_rf[i], bfh[i]);
  }
}

TEST(PipelineDatasetTest, UnweightedInsectLikeParsesEverywhere) {
  // The property that broke the original HashRF: trees without branch
  // lengths. Every engine here must handle them.
  const sim::Dataset ds = sim::generate(sim::insect_like(12));
  const auto bfh = core::bfhrf_average_rf(ds.trees, ds.trees);
  const auto hashrf = core::hash_rf(ds.trees);
  for (std::size_t i = 0; i < ds.trees.size(); ++i) {
    EXPECT_DOUBLE_EQ(bfh[i], hashrf.avg_rf[i]);
  }
}

TEST(PipelineScaleTest, MediumCollectionStaysExact) {
  // A larger smoke test: n=48 avian-like shape, r=300, Q==R.
  const sim::Dataset ds = sim::generate(sim::avian_like(300));
  core::Bfhrf engine(ds.taxa->size(), {.threads = 4});
  engine.build(ds.trees);
  const auto bfh = engine.query(ds.trees);

  // Spot-check 10 trees against brute force.
  util::Rng rng(7);
  for (int rep = 0; rep < 10; ++rep) {
    const std::size_t i = rng.below(ds.trees.size());
    double sum = 0;
    core::DayTable table(ds.trees[i]);
    for (const auto& r : ds.trees) {
      sum += static_cast<double>(table.rf_against(r));
    }
    EXPECT_DOUBLE_EQ(bfh[i], sum / static_cast<double>(ds.trees.size()));
  }
}

}  // namespace
}  // namespace bfhrf
