// Vector-ingest equivalence: the VectorSource family (spans, .p2v files)
// and the engine's direct-from-vector build and query paths must be
// BIT-IDENTICAL to the Tree ingest paths — the codec preserves every
// unrooted bipartition, and downstream of extraction both forms share one
// insertion/query tail. Also pins the size_hint contract: exact from a
// counted .p2v header, semicolon-estimated for Newick files.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/bfhrf.hpp"
#include "core/tree_source.hpp"
#include "phylo/taxon_set.hpp"
#include "phylo/vector_codec.hpp"
#include "support/test_util.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bfhrf::core {
namespace {

using phylo::TaxonSet;
using phylo::Tree;
using phylo::TreeVector;

/// Self-deleting scratch path under the system temp dir.
class TempFile {
 public:
  explicit TempFile(const char* tag) {
    path_ = (std::filesystem::temp_directory_path() /
             (std::string("bfhrf_vector_source_test_") + tag))
                .string();
  }
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

struct Collections {
  phylo::TaxonSetPtr taxa;
  std::vector<Tree> reference;
  std::vector<Tree> queries;
  std::vector<TreeVector> reference_vectors;
  std::vector<TreeVector> query_vectors;
  std::size_t n_bits = 0;
};

Collections make_collections(std::size_t n_taxa, std::size_t r,
                             std::size_t q, std::uint64_t seed) {
  Collections c;
  c.taxa = TaxonSet::make_numbered(n_taxa);
  util::Rng rng(seed);
  c.reference = test::random_collection(c.taxa, r, 4, rng);
  c.queries = test::random_collection(c.taxa, q, 6, rng);
  c.n_bits = c.taxa->size();
  for (const Tree& t : c.reference) {
    c.reference_vectors.push_back(phylo::tree_to_vector(t));
  }
  for (const Tree& t : c.queries) {
    c.query_vectors.push_back(phylo::tree_to_vector(t));
  }
  return c;
}

/// Baseline: the in-memory Tree span path.
std::vector<double> tree_baseline(const Collections& c, BfhrfOptions opts) {
  Bfhrf engine(c.n_bits, opts);
  engine.build(c.reference);
  return engine.query(c.queries);
}

/// The trees streamed from Newick files (build and query).
std::vector<double> tree_stream_run(const Collections& c, BfhrfOptions opts) {
  Bfhrf engine(c.n_bits, opts);
  const test::TempNewick ref_file("reference", c.reference);
  const test::TempNewick query_file("queries", c.queries);
  FileTreeSource ref(ref_file.path(), c.taxa);
  engine.build(ref);
  FileTreeSource queries(query_file.path(), c.taxa);
  return engine.query(queries);
}

/// Direct vector path over in-memory rows (build and query).
std::vector<double> vector_run(const Collections& c, BfhrfOptions opts) {
  Bfhrf engine(c.n_bits, opts);
  SpanVectorSource ref(c.reference_vectors, c.n_bits);
  SpanVectorSource queries(c.query_vectors, c.n_bits);
  engine.build(ref);
  return engine.query(queries);
}

void expect_bitwise(const std::vector<double>& got,
                    const std::vector<double>& expect, const char* what) {
  ASSERT_EQ(got.size(), expect.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expect[i]) << what << " query " << i;
  }
}

TEST(VectorSourceTest, P2vFileHintIsExactAndResetRewinds) {
  const Collections c = make_collections(11, 17, 0, 21);
  TempFile file("hint.p2v");
  phylo::write_p2v_file(file.path(), c.reference);

  P2vFileSource source(file.path());
  EXPECT_EQ(source.n_taxa(), c.n_bits);
  ASSERT_TRUE(source.size_hint().has_value());
  EXPECT_EQ(*source.size_hint(), c.reference.size());  // exact, not estimated
  EXPECT_EQ(source.header().labels.size(), c.n_bits);

  for (int pass = 0; pass < 2; ++pass) {
    TreeVector row;
    std::size_t seen = 0;
    while (source.next(row)) {
      ASSERT_LT(seen, c.reference_vectors.size());
      EXPECT_EQ(row, c.reference_vectors[seen]) << "pass " << pass;
      ++seen;
    }
    EXPECT_EQ(seen, c.reference.size()) << "pass " << pass;
    source.reset();
  }
}

TEST(VectorSourceTest, P2vFileRejectsTruncation) {
  const Collections c = make_collections(7, 5, 0, 22);
  TempFile file("trunc.p2v");
  phylo::write_p2v_file(file.path(), c.reference);

  std::ifstream in(file.path(), std::ios::binary);
  std::vector<char> bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  in.close();
  bytes.resize(bytes.size() - 3);  // cut into the last record
  std::ofstream out(file.path(), std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  P2vFileSource source(file.path());
  TreeVector row;
  EXPECT_THROW(
      {
        while (source.next(row)) {
        }
      },
      ParseError);
}

TEST(VectorSourceTest, FileTreeSourceCountsSemicolons) {
  TempFile file("trees.nwk");
  {
    std::ofstream out(file.path());
    out << "(t0,(t1,t2),t3);\n";
    out << "((t0,t1),(t2,t3));\n";
    out << "((t0,t3),(t1,t2));\n";
  }
  const auto taxa = TaxonSet::make_numbered(4);
  FileTreeSource source(file.path(), taxa);
  ASSERT_TRUE(source.size_hint().has_value());
  EXPECT_EQ(*source.size_hint(), 3u);
  Tree t;
  std::size_t seen = 0;
  while (source.next(t)) {
    ++seen;
  }
  EXPECT_EQ(seen, 3u);
  EXPECT_EQ(*source.size_hint(), 3u);  // cached hint survives the stream
}

TEST(VectorSourceTest, DirectVectorBuildAndQueryMatchTreePathBitwise) {
  const Collections c = make_collections(20, 40, 12, 24);
  const auto expect = tree_baseline(c, BfhrfOptions{.threads = 1});

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{3}, std::size_t{4},
                                    std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto got = vector_run(c, BfhrfOptions{.threads = threads});
    expect_bitwise(got, expect, "direct vector path");
  }
}

TEST(VectorSourceTest, ShardedAndCompressedVectorBuildsMatch) {
  const Collections c = make_collections(18, 30, 9, 25);
  const auto expect = tree_baseline(c, BfhrfOptions{.threads = 1});

  const auto sharded = vector_run(c, BfhrfOptions{.threads = 4});
  expect_bitwise(sharded, expect, "sharded vector build");

  const auto compressed =
      vector_run(c, BfhrfOptions{.threads = 2, .compressed_keys = true});
  expect_bitwise(compressed, expect, "compressed vector build");
}

TEST(VectorSourceTest, WeightedVariantAgreesAcrossIngestForms) {
  // Variants force sorted arenas on every path, and the build folds each
  // tree's kept weight into sumBFHR in stream order, so even floating-point
  // weight sums are bit-identical across ingest forms and thread counts.
  const Collections c = make_collections(16, 20, 7, 26);
  const InformationWeightedRf variant(16);
  BfhrfOptions base{.threads = 1};
  base.variant = &variant;
  const auto expect = tree_baseline(c, base);
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    BfhrfOptions opts = base;
    opts.threads = threads;
    expect_bitwise(tree_baseline(c, opts), expect, "weighted span build");
    expect_bitwise(tree_stream_run(c, opts), expect,
                   "weighted Newick file build");
    expect_bitwise(vector_run(c, opts), expect, "weighted vector build");
  }
}

TEST(VectorSourceTest, P2vCorpusFeedsTheEngine) {
  const Collections c = make_collections(15, 25, 8, 27);
  TempFile file("engine.p2v");
  phylo::write_p2v_file(file.path(), c.reference);

  const auto expect = tree_baseline(c, BfhrfOptions{.threads = 1});
  Bfhrf engine(c.n_bits, BfhrfOptions{.threads = 3});
  P2vFileSource source(file.path());
  engine.build(source);
  const auto got = engine.query(c.queries);
  expect_bitwise(got, expect, "p2v corpus build");

  // Width mismatch is rejected before any row is consumed.
  Bfhrf narrow(c.n_bits + 1, BfhrfOptions{.threads = 1});
  source.reset();
  EXPECT_THROW(narrow.build(source), InvalidArgument);
}

}  // namespace
}  // namespace bfhrf::core
