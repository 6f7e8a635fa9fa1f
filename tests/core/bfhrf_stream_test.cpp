// Streaming-engine equivalence: the pipelined engine over every payload
// (span pointers, Newick records extracted on the workers) must produce
// per-tree averages BIT-IDENTICAL to Algorithm 1 (core/sequential_rf,
// which shares no code with BFHRF) for classic RF — all terms are
// integer-valued — regardless of thread count, store kind, or pre-sizing
// hints.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/bfhrf.hpp"
#include "core/sequential_rf.hpp"
#include "core/tree_source.hpp"
#include "core/variants.hpp"
#include "obs/metrics.hpp"
#include "phylo/newick.hpp"
#include "phylo/taxon_set.hpp"
#include "sim/datasets.hpp"
#include "support/test_util.hpp"
#include "util/rng.hpp"

namespace bfhrf::core {
namespace {

using phylo::TaxonSet;
using phylo::Tree;

using test::TempNewick;

struct Collections {
  phylo::TaxonSetPtr taxa;
  std::vector<Tree> reference;
  std::vector<Tree> queries;
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
  return c;
}

/// Both collections through the engine: from the spans, or streamed from
/// Newick files through FileTreeSource.
std::vector<double> run_engine(const Collections& c, BfhrfOptions opts,
                               bool stream) {
  Bfhrf engine(c.n_bits, opts);
  if (stream) {
    const TempNewick ref_file("ref", c.reference);
    const TempNewick query_file("query", c.queries);
    FileTreeSource ref_source(ref_file.path(), c.taxa);
    engine.build(ref_source);
    FileTreeSource query_source(query_file.path(), c.taxa);
    return engine.query(query_source);
  }
  engine.build(c.reference);
  return engine.query(c.queries);
}

/// Baseline: Algorithm 1, the pairwise tree-vs-tree average.
std::vector<double> sequential_baseline(const Collections& c) {
  return sequential_avg_rf(c.queries, c.reference).avg_rf;
}

TEST(BfhrfStreamTest, PipelinedStreamMatchesSpanPathBitwise) {
  const Collections c = make_collections(18, 40, 13, 11);
  const auto expect = sequential_baseline(c);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    for (const bool stream : {false, true}) {
      const auto got =
          run_engine(c, BfhrfOptions{.threads = threads}, stream);
      ASSERT_EQ(got.size(), expect.size()) << "threads=" << threads;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], expect[i])
            << "threads=" << threads << " stream=" << stream << " query "
            << i;
      }
    }
  }
}

TEST(BfhrfStreamTest, ScratchReuseIsInvariant) {
  // Re-querying through the same engine (same warm per-worker scratch)
  // is stable: a warm extractor must not leak state from the previous tree.
  const Collections c = make_collections(20, 35, 11, 14);
  Bfhrf engine(c.n_bits, BfhrfOptions{.threads = 2});
  engine.build(c.reference);
  const auto first = engine.query(c.queries);
  const auto second = engine.query(c.queries);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << "query " << i;
  }
}

TEST(BfhrfStreamTest, BatchedQueryIsInvariant) {
  // Both key encodings resolve through the frequency_many prefetch path:
  // raw keys compare words, sparse keys compare their encoded bytes. They
  // must agree bitwise (classic RF terms are integers in doubles), at
  // 2-word and 1-word keys.
  for (const std::size_t n_taxa : {std::size_t{70}, std::size_t{24}}) {
    const Collections c = make_collections(n_taxa, 30, 9, 15);
    const auto raw = run_engine(c, BfhrfOptions{.threads = 1},
                                /*stream=*/false);
    const auto sparse = run_engine(
        c, BfhrfOptions{.threads = 1, .compressed_keys = true},
        /*stream=*/false);
    ASSERT_EQ(raw.size(), sparse.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
      EXPECT_EQ(raw[i], sparse[i]) << "n=" << n_taxa << " query " << i;
    }
  }
}

TEST(BfhrfStreamTest, ExpectedUniqueHintDoesNotChangeResults) {
  const Collections c = make_collections(15, 30, 8, 17);
  const auto expect = sequential_baseline(c);

  Bfhrf sized(c.n_bits, BfhrfOptions{.threads = 2, .expected_unique = 4096});
  sized.build(c.reference);
  const auto got = sized.query(c.queries);
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expect[i]) << "query " << i;
  }
  // The hint pre-sizes; it must never undercount what was actually stored.
  EXPECT_EQ(sized.stats().unique_bipartitions,
            [&] {
              Bfhrf plain(c.n_bits, BfhrfOptions{.threads = 1});
              plain.build(c.reference);
              return plain.stats().unique_bipartitions;
            }());
}

TEST(BfhrfStreamTest, CompressedStoreStreamsThroughPipeline) {
  // Compressed stores take the same batched add_many/frequency_many paths
  // as raw ones, comparing encoded bytes instead of words; the pipeline
  // must still hold exactly.
  const Collections c = make_collections(17, 25, 7, 18);
  const auto expect = sequential_baseline(c);
  const auto got = run_engine(
      c, BfhrfOptions{.threads = 3, .compressed_keys = true},
      /*stream=*/true);
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expect[i]) << "query " << i;
  }
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(BfhrfStreamTest, FileBackedStreamMatchesSpanPathBitwise) {
  // Workers parse FileTreeSource records into per-rank trees from batches
  // of up to 16 records; 16k + 7 records leave a short last batch, and a
  // 1-record file is a single short batch.
  const auto taxa = TaxonSet::make_numbered(40);
  util::Rng rng(21);
  const std::vector<Tree> reference = test::random_collection(taxa, 71, 5, rng);
  const std::vector<Tree> queries = test::random_collection(taxa, 39, 7, rng);
  struct Files {
    std::span<const Tree> reference;
    std::span<const Tree> queries;
    TempNewick reference_file;
    TempNewick query_file;
  };
  const Files collections[] = {
      {reference, queries, {"ref", reference}, {"query", queries}},
      {std::span(reference).first(1), std::span(queries).first(1),
       {"ref1", std::span(reference).first(1)},
       {"query1", std::span(queries).first(1)}},
  };

  const InformationWeightedRf weighted(taxa->size());
  struct Engine {
    const char* name;
    BfhrfOptions opts;
  };
  const Engine engines[] = {
      {"sharded", {.threads = 4}},
      {"single-table", {.threads = 1}},
      {"compressed", {.compressed_keys = true}},
      {"weighted", {.variant = &weighted}},
  };
  for (const Files& c : collections) {
    for (const Engine& e : engines) {
      SCOPED_TRACE(std::string(e.name) + " r=" +
                   std::to_string(c.reference.size()));
      SequentialRfOptions seq_opts;
      seq_opts.variant = e.opts.variant;
      const std::vector<double> sequential =
          sequential_avg_rf(c.queries, c.reference, seq_opts).avg_rf;
      const std::vector<double> span = [&] {
        Bfhrf engine(taxa->size(), e.opts);
        engine.build(c.reference);
        return engine.query(c.queries);
      }();
      ASSERT_EQ(span.size(), sequential.size());
      for (std::size_t i = 0; i < span.size(); ++i) {
        if (e.opts.variant == nullptr) {
          EXPECT_EQ(span[i], sequential[i]) << "query " << i;
        } else {
          // Weighted terms are not integers: Algorithm 1 sums them in
          // another order, so it agrees only to rounding.
          EXPECT_NEAR(span[i], sequential[i], 1e-9) << "query " << i;
        }
      }
      for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                        std::size_t{3}, std::size_t{4},
                                        std::size_t{8}}) {
        BfhrfOptions opts = e.opts;
        opts.threads = threads;
        Bfhrf engine(taxa->size(), opts);
        FileTreeSource ref_source(c.reference_file.path(), taxa);
        engine.build(ref_source);
        EXPECT_EQ(engine.stats().reference_trees, c.reference.size());
        FileTreeSource query_source(c.query_file.path(), taxa);
        EXPECT_TRUE(bitwise_equal(engine.query(query_source), span))
            << "threads=" << threads;
      }
    }
  }
}

TEST(BfhrfStreamTest, NewickRecordRoutesMatchSpanPathAndReconcile) {
  // Workers extract every record's splits straight from the text, and
  // each record is counted once, in the build and in the query. Some
  // records here carry a unary group (which the parse suppresses) around
  // a leaf or around an internal group: the split pass folds it, and the
  // answers must equal the span path over the same parsed trees. A record
  // that repeats a taxon is rejected at every thread count.
  constexpr std::size_t kRecords = 90;
  const auto taxa = TaxonSet::make_numbered(70);  // 2-word keys
  util::Rng rng(25);
  const std::vector<Tree> base = test::random_collection(taxa, kRecords, 5, rng);
  std::string text;
  std::string repeated_taxon;
  for (std::size_t i = 0; i < kRecords; ++i) {
    std::string record = phylo::write_newick(base[i]);
    // The label after the record's first '(' run is always a leaf.
    const std::size_t begin = record.find_first_not_of('(');
    const std::size_t end = record.find_first_of(",):", begin);
    if (i % 9 == 4) {
      record.insert(end, ")");  // a unary group around that leaf
      record.insert(begin, "(");
    } else if (i % 9 == 7) {
      // A unary group around the first internal group below the root.
      const std::size_t open = record.find('(', 1);
      std::size_t close = open;
      for (int depth = 0; close == open || depth > 0; ++close) {
        depth += record[close] == '(' ? 1 : record[close] == ')' ? -1 : 0;
      }
      record.insert(close, ")");
      record.insert(open, "(");
    }
    if (i == 0) {
      const std::string other = record.substr(begin, end - begin) == "t0"
                                    ? "t1"
                                    : "t0";
      repeated_taxon = record;
      repeated_taxon.replace(begin, end - begin, other);
    }
    text += record + "\n";
  }
  const TempNewick file("routes", text);
  const std::vector<Tree> trees = phylo::read_newick_file(file.path(), taxa);
  ASSERT_EQ(trees.size(), kRecords);

  const std::vector<double> span = [&] {
    Bfhrf engine(taxa->size(), BfhrfOptions{.threads = 1});
    engine.build(trees);
    return engine.query(trees);
  }();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::uint64_t framed0 = obs::counter_value("phylo.newick.trees");
    const std::uint64_t split0 =
        obs::counter_value("phylo.newick.split_records");
    Bfhrf engine(taxa->size(), BfhrfOptions{.threads = threads});
    FileTreeSource ref_source(file.path(), taxa);
    engine.build(ref_source);
    FileTreeSource query_source(file.path(), taxa);
    EXPECT_TRUE(bitwise_equal(engine.query(query_source), span));
    if (!obs::compiled_in()) {
      continue;  // the counter half needs observability
    }
    const std::uint64_t framed =
        obs::counter_value("phylo.newick.trees") - framed0;
    const std::uint64_t split =
        obs::counter_value("phylo.newick.split_records") - split0;
    EXPECT_EQ(framed, 2 * kRecords);
    EXPECT_EQ(split, framed);
  }

  const TempNewick bad("routes_repeated", text + repeated_taxon + "\n");
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Bfhrf built(taxa->size(), BfhrfOptions{.threads = threads});
    FileTreeSource good_source(file.path(), taxa);
    built.build(good_source);
    FileTreeSource query_source(bad.path(), taxa);
    EXPECT_THROW((void)built.query(query_source), ParseError);
    Bfhrf rejected(taxa->size(), BfhrfOptions{.threads = threads});
    FileTreeSource ref_source(bad.path(), taxa);
    EXPECT_THROW(rejected.build(ref_source), ParseError);
  }
}

TEST(BfhrfStreamTest, StagedKeysStayUnderTheBudgetAtEveryThreadCount) {
  // A build worker flushes a shard's bucket once it holds its share of
  // Bfhrf::kStageKeys, so it never stages more than kStageKeys keys plus
  // one tree, however long the stream. 16k + 7 trees of 37 splits are
  // about 600k keys; staging them all would take 0.6-2.4 MB per worker.
  if (!obs::compiled_in()) {
    GTEST_SKIP() << "observability compiled out";
  }
  constexpr std::size_t kTaxa = 40;
  constexpr std::size_t kTrees = 16 * 1024 + 7;
  const auto taxa = TaxonSet::make_numbered(kTaxa);
  util::Rng rng(24);
  const std::vector<Tree> reference =
      test::random_collection(taxa, kTrees, 5, rng);
  const TempNewick file("staging", reference);
  const double bound = static_cast<double>(
      (Bfhrf::kStageKeys + kTaxa) * util::words_for_bits(kTaxa) *
      sizeof(std::uint64_t));
  for (const std::size_t threads : {std::size_t{2}, std::size_t{3},
                                    std::size_t{4}, std::size_t{8}}) {
    for (const bool from_file : {true, false}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   (from_file ? " file" : " span"));
      Bfhrf engine(kTaxa, BfhrfOptions{.threads = threads});
      if (from_file) {
        FileTreeSource source(file.path(), taxa);
        engine.build(source);
      } else {
        engine.build(reference);
      }
      ASSERT_EQ(engine.stats().reference_trees, kTrees);
      const double staged =
          obs::gauge_value("bfhrf.build.shard.staged_bytes_max");
      EXPECT_LE(staged, bound);
      if (test::expected_shards(threads) > 1) {
        EXPECT_GT(staged, 0.0);  // the build had workers, which staged
      }
    }
  }
}

TEST(BfhrfStreamTest, FileBackedMalformedRecordThrowsParseError) {
  const auto taxa = TaxonSet::make_numbered(12);
  util::Rng rng(22);
  std::string text;
  for (const Tree& t : test::random_collection(taxa, 40, 3, rng)) {
    text += phylo::write_newick(t) + "\n";
  }
  const std::size_t cut = text.find('\n', text.size() / 2);
  text.insert(cut + 1, "((t0,t1),(t2,t3);\n");
  const TempNewick file("malformed", text);
  const std::vector<Tree> good = test::random_collection(taxa, 5, 3, rng);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    Bfhrf engine(taxa->size(), BfhrfOptions{.threads = threads});
    FileTreeSource build_source(file.path(), taxa);
    EXPECT_THROW(engine.build(build_source), ParseError) << threads;
    Bfhrf built(taxa->size(), BfhrfOptions{.threads = threads});
    built.build(good);
    FileTreeSource query_source(file.path(), taxa);
    EXPECT_THROW((void)built.query(query_source), ParseError) << threads;
  }
}

TEST(BfhrfStreamTest, UnknownLabelThrowsAndLeavesNamespaceUnchanged) {
  // Workers parse against the caller's namespace read-only: a label
  // outside it fails the stream naming the label, and the set never grows
  // (growing it while workers read its size would be a data race; the
  // TSan tier runs this test).
  const sim::Dataset ds = sim::generate(sim::insect_like(600));
  std::string text;
  for (std::size_t i = 0; i < ds.trees.size(); ++i) {
    std::string record = phylo::write_newick(ds.trees[i]);
    if (i == 300) {
      // Rename one leaf: the label that follows the record's first '('
      // run is always a leaf.
      const std::size_t begin = record.find_first_not_of('(');
      const std::size_t end = record.find_first_of(",):", begin);
      ASSERT_TRUE(ds.taxa->contains(record.substr(begin, end - begin)));
      record.replace(begin, end - begin, "NEWTAXON");
    }
    text += record + "\n";
  }
  const TempNewick file("newtaxon", text);
  const std::size_t width = ds.taxa->size();
  const auto expect_unknown = [&](const auto& run) {
    try {
      run();
      ADD_FAILURE() << "expected InvalidArgument";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("NEWTAXON"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(ds.taxa->size(), width);
  };
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_unknown([&] {
      Bfhrf engine(width, BfhrfOptions{.threads = threads});
      FileTreeSource source(file.path(), ds.taxa);
      engine.build(source);
    });
    Bfhrf built(width, BfhrfOptions{.threads = threads});
    built.build(std::span(ds.trees).first(50));
    expect_unknown([&] {
      FileTreeSource source(file.path(), ds.taxa);
      (void)built.query(source);
    });
  }
}

TEST(BfhrfStreamTest, FileSourceNamespaceWidthCheckedUpFront) {
  const auto taxa = TaxonSet::make_numbered(10);
  util::Rng rng(23);
  const TempNewick file("width",
                        test::random_collection(taxa, 20, 3, rng));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    // An empty namespace is not discovered on the fly any more.
    auto empty = std::make_shared<TaxonSet>();
    Bfhrf engine(taxa->size(), BfhrfOptions{.threads = threads});
    FileTreeSource source(file.path(), empty);
    EXPECT_THROW(engine.build(source), InvalidArgument);
    EXPECT_TRUE(empty->empty());
    EXPECT_EQ(engine.stats().reference_trees, 0u);

    FileTreeSource good(file.path(), taxa);
    engine.build(good);
    FileTreeSource narrow(file.path(), TaxonSet::make_numbered(9));
    EXPECT_THROW((void)engine.query(narrow), InvalidArgument);
  }
}

}  // namespace
}  // namespace bfhrf::core
