#include "qc/harness.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "phylo/newick.hpp"
#include "qc/artifact.hpp"
#include "support/test_util.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace bfhrf::qc {
namespace {

using phylo::Tree;

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

TEST(HarnessTest, GeneratedWorkloadsPassEveryKind) {
  for (const WorkloadKind kind :
       {WorkloadKind::Clustered, WorkloadKind::Independent,
        WorkloadKind::Multifurcating, WorkloadKind::Mixed}) {
    HarnessOptions opts;
    opts.n = 10;
    opts.r = 6;
    opts.q = 4;
    opts.seed = test::fuzz_seed(0xa1 + static_cast<std::uint64_t>(kind));
    opts.kind = kind;
    SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(kind)) +
                 " seed=" + test::hex_seed(opts.seed));
    const HarnessResult result = verify_generated(opts);
    EXPECT_TRUE(result.passed) << result.summary();
    EXPECT_NE(result.summary().find("PASS"), std::string::npos);
  }
}

TEST(HarnessTest, WorkloadsAreDeterministicInTheSeed) {
  HarnessOptions opts;
  opts.n = 9;
  opts.r = 5;
  opts.q = 3;
  opts.seed = 0xD5;
  const Workload a = make_workload(opts);
  const Workload b = make_workload(opts);
  ASSERT_EQ(a.reference.size(), b.reference.size());
  for (std::size_t i = 0; i < a.reference.size(); ++i) {
    EXPECT_EQ(phylo::write_newick(a.reference[i]),
              phylo::write_newick(b.reference[i]));
  }
  opts.seed = 0xD6;
  const Workload c = make_workload(opts);
  bool any_differ = false;
  for (std::size_t i = 0; i < a.reference.size(); ++i) {
    any_differ = any_differ || phylo::write_newick(a.reference[i]) !=
                                   phylo::write_newick(c.reference[i]);
  }
  EXPECT_TRUE(any_differ);
}

TEST(HarnessTest, WorkloadValidation) {
  HarnessOptions opts;
  opts.n = 3;
  EXPECT_THROW(make_workload(opts), InvalidArgument);
  opts.n = 8;
  opts.r = 0;
  EXPECT_THROW(make_workload(opts), InvalidArgument);
}

TEST(HarnessTest, VerifyCollectionHandlesTheSplitSetting) {
  HarnessOptions opts;
  opts.n = 10;
  opts.r = 5;
  opts.q = 4;
  opts.seed = 0xD7;
  const Workload w = make_workload(opts);
  const HarnessResult result =
      verify_collection(w.reference, w.queries, opts);
  EXPECT_TRUE(result.passed) << result.summary();
  EXPECT_TRUE(result.messages.empty());
  EXPECT_TRUE(result.artifact_path.empty());
}

TEST(ArtifactTest, RoundTripsAllFields) {
  HarnessOptions wopts;
  wopts.n = 8;
  wopts.r = 3;
  wopts.q = 0;
  wopts.seed = 0xD8;
  const Workload w = make_workload(wopts);

  Artifact a;
  a.seed = 0x1F2E;
  a.thread_counts = {1, 4};
  a.include_trivial = true;
  a.note = "first divergence\nsecond line";  // newline must be sanitized
  a.taxa = w.taxa;
  a.trees = w.reference;

  const std::string path = temp_path("artifact_roundtrip.repro");
  write_artifact(path, a);
  const Artifact back = read_artifact(path);

  EXPECT_EQ(back.seed, 0x1F2EULL);
  EXPECT_EQ(back.thread_counts, (std::vector<std::size_t>{1, 4}));
  EXPECT_TRUE(back.include_trivial);
  EXPECT_EQ(back.note, "first divergence second line");
  ASSERT_EQ(back.taxa->size(), w.taxa->size());
  ASSERT_EQ(back.trees.size(), a.trees.size());
  for (std::size_t i = 0; i < a.trees.size(); ++i) {
    EXPECT_EQ(phylo::write_newick(back.trees[i]),
              phylo::write_newick(a.trees[i]));
  }
  std::remove(path.c_str());
}

TEST(ArtifactTest, RejectsMalformedFiles) {
  const std::string path = temp_path("artifact_bad.repro");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("# comment\nbogus_key 1\n", f);
    std::fclose(f);
  }
  EXPECT_THROW(read_artifact(path), ParseError);
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("seed 0x1\n", f);  // no trees
    std::fclose(f);
  }
  EXPECT_THROW(read_artifact(path), ParseError);
  std::remove(path.c_str());
  EXPECT_THROW(read_artifact(path), Error);  // missing file
}

TEST(ArtifactTest, ThreadCountsAboveTheFlagLimitAreRejected) {
  // A replay runs every engine at each stored count, so a crafted artifact
  // must not reach them with 100,000 threads: read_artifact alone rejects
  // the line, naming it and the value, and starts nothing.
  const std::string path = temp_path("artifact_threads.repro");
  const auto write = [&](const char* threads_line) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(threads_line, f);
    std::fputs("tree ((A,B),(C,D),(E,F));\n", f);
    std::fclose(f);
  };
  write("threads 1,100000\n");
  try {
    (void)read_artifact(path);
    ADD_FAILURE() << "a threads 100000 artifact was read";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("threads 1,100000"), std::string::npos) << what;
    EXPECT_NE(what.find("100000 threads"), std::string::npos) << what;
  }
  write(("threads 1," + std::to_string(util::kMaxFlagThreads) + "\n").c_str());
  EXPECT_EQ(read_artifact(path).thread_counts,
            (std::vector<std::size_t>{1, util::kMaxFlagThreads}));
  std::remove(path.c_str());
}

TEST(ArtifactTest, ReplayVerifiesTheStoredCollection) {
  HarnessOptions wopts;
  wopts.n = 9;
  wopts.r = 4;
  wopts.q = 0;
  wopts.seed = 0xD9;
  const Workload w = make_workload(wopts);

  Artifact a;
  a.seed = wopts.seed;
  a.taxa = w.taxa;
  a.trees = w.reference;
  const std::string path = temp_path("artifact_replay.repro");
  write_artifact(path, a);

  // A healthy library: replaying a healthy collection passes, and the
  // artifact's configuration is what runs.
  const HarnessResult result = replay_artifact(path);
  EXPECT_TRUE(result.passed) << result.summary();
  EXPECT_EQ(result.oracle.seed, wopts.seed);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bfhrf::qc
