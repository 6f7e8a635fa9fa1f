// Vector codec: phylo2vec bijection, text/.p2v corpus I/O, and the
// direct-from-vector bipartition extractor (DESIGN.md §9).
#include "phylo/vector_codec.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "phylo/bipartition.hpp"
#include "phylo/newick.hpp"
#include "phylo/taxon_set.hpp"
#include "phylo/tree.hpp"
#include "support/test_util.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bfhrf::phylo {
namespace {

using test::fuzz_seed;
using test::hex_seed;

testing::AssertionResult sets_equal(const BipartitionSet& a,
                                    const BipartitionSet& b) {
  if (a.n_bits() != b.n_bits()) {
    return testing::AssertionFailure()
           << "n_bits " << a.n_bits() << " vs " << b.n_bits();
  }
  if (a.size() != b.size()) {
    return testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!util::equal_words(a[i], b[i])) {
      return testing::AssertionFailure() << "bipartition " << i << " differs";
    }
  }
  if (!(a.leaf_mask() == b.leaf_mask())) {
    return testing::AssertionFailure() << "leaf masks differ";
  }
  return testing::AssertionSuccess();
}

std::size_t rf_between(const Tree& a, const Tree& b) {
  const BipartitionSet sa = extract_bipartitions(a);
  const BipartitionSet sb = extract_bipartitions(b);
  return BipartitionSet::symmetric_difference_size(sa, sb);
}

TreeVector random_vector(std::size_t n, util::Rng& rng) {
  TreeVector v(n - 1);
  for (std::size_t j = 0; j < v.size(); ++j) {
    v[j] = static_cast<std::uint32_t>(rng.below(2 * j + 1));
  }
  return v;
}

TEST(VectorCodec, ValidateRejectsOutOfRangeCodes) {
  EXPECT_NO_THROW(validate_vector(TreeVector{0, 2, 4}));
  EXPECT_THROW(validate_vector(TreeVector{1}), InvalidArgument);
  EXPECT_THROW(validate_vector(TreeVector{0, 3}), InvalidArgument);
  EXPECT_THROW(validate_vector(TreeVector{0, 2, 5}), InvalidArgument);
}

TEST(VectorCodec, SingleLeafRoundTrip) {
  const auto taxa = TaxonSet::make_numbered(1);
  const Tree t = vector_to_tree(TreeVector{}, taxa);
  EXPECT_EQ(t.num_leaves(), 1U);
  EXPECT_TRUE(tree_to_vector(t).empty());
}

TEST(VectorCodec, ThreeTaxaEnumeration) {
  // The 3 vectors on 3 taxa decode to the 3 distinct rooted cherries.
  const auto taxa = TaxonSet::make_numbered(3);
  const struct {
    TreeVector v;
    const char* newick;  // same unrooted topology, trivial splits differ
  } cases[] = {
      {{0, 0}, "((t0,t2),t1);"},
      {{0, 1}, "((t1,t2),t0);"},
      {{0, 2}, "((t0,t1),t2);"},
  };
  for (const auto& c : cases) {
    const Tree decoded = vector_to_tree(c.v, taxa);
    decoded.validate();
    EXPECT_EQ(tree_to_vector(decoded), c.v);
    const Tree expected = parse_newick(c.newick, taxa);
    const BipartitionOptions trivial{.include_trivial = true};
    EXPECT_TRUE(sets_equal(extract_bipartitions(decoded, trivial),
                           extract_bipartitions(expected, trivial)))
        << format_vector(c.v);
  }
}

TEST(VectorCodec, FourTaxaExhaustiveBijection) {
  // All (2*4-3)!! = 15 vectors decode to valid trees and encode back to
  // themselves; decoded trees are pairwise distinct as rooted topologies
  // (their vectors differ, and the map is injective by round trip).
  const auto taxa = TaxonSet::make_numbered(4);
  std::size_t count = 0;
  for (std::uint32_t a = 0; a <= 2; ++a) {
    for (std::uint32_t b = 0; b <= 4; ++b) {
      const TreeVector v{0, a, b};
      const Tree t = vector_to_tree(v, taxa);
      t.validate();
      EXPECT_TRUE(t.is_binary());
      EXPECT_EQ(t.num_leaves(), 4U);
      EXPECT_EQ(tree_to_vector(t), v) << format_vector(v);
      ++count;
    }
  }
  EXPECT_EQ(count, 15U);
}

TEST(VectorCodec, EncodeRejectsNonBinaryAndPartialCoverage) {
  const auto taxa = TaxonSet::make_numbered(4);
  // Root degree 4 (multifurcation beyond the unrooted convention).
  const Tree multi = parse_newick("(t0,t1,t2,t3);", taxa);
  EXPECT_THROW((void)tree_to_vector(multi), InvalidArgument);
  // Binary tree on a strict subset of the taxon namespace.
  const Tree partial = parse_newick("((t0,t1),t2);", taxa);
  EXPECT_THROW((void)tree_to_vector(partial), InvalidArgument);
}

TEST(VectorCodec, DecodeChecksTaxonCount) {
  const auto taxa = TaxonSet::make_numbered(5);
  EXPECT_THROW((void)vector_to_tree(TreeVector{0, 0}, taxa), InvalidArgument);
  EXPECT_THROW((void)vector_to_tree(TreeVector{0}, nullptr), InvalidArgument);
}

TEST(VectorCodec, UnrootedConventionEncodes) {
  // deroot() produces the repo's degree-3 root; the codec roots it back
  // deterministically and the unrooted topology survives the round trip.
  const auto taxa = TaxonSet::make_numbered(6);
  util::Rng rng(0xC0DEC);
  for (int iter = 0; iter < 20; ++iter) {
    Tree t = sim::yule_tree(taxa, rng);
    t.deroot();
    const TreeVector v = tree_to_vector(t);
    const Tree back = vector_to_tree(v, taxa);
    back.validate();
    EXPECT_EQ(rf_between(t, back), 0U);
    EXPECT_EQ(tree_to_vector(back), v);
  }
}

TEST(VectorCodecFuzz, TreeVectorTreeRoundTrip) {
  const std::uint64_t seed = fuzz_seed(0xF10C0DEC);
  SCOPED_TRACE("seed=" + hex_seed(seed));
  util::Rng rng(seed);
  for (const std::size_t n : {2U, 3U, 5U, 17U, 40U, 97U}) {
    const auto taxa = TaxonSet::make_numbered(n);
    for (int iter = 0; iter < 25; ++iter) {
      const Tree t = rng.below(2) == 0 ? sim::yule_tree(taxa, rng)
                                       : sim::uniform_tree(taxa, rng);
      const TreeVector v = tree_to_vector(t);
      ASSERT_EQ(v.size(), n - 1);
      ASSERT_NO_THROW(validate_vector(v));
      const Tree back = vector_to_tree(v, taxa);
      back.validate();
      // Same unrooted topology (RF is rooting-invariant)...
      ASSERT_EQ(rf_between(t, back), 0U) << "n=" << n;
      // ...and the vector is a fixed point of encode(decode(.)).
      ASSERT_EQ(tree_to_vector(back), v) << "n=" << n;
    }
  }
}

TEST(VectorCodecFuzz, VectorTreeVectorIdentity) {
  const std::uint64_t seed = fuzz_seed(0xF20C0DEC);
  SCOPED_TRACE("seed=" + hex_seed(seed));
  util::Rng rng(seed);
  for (const std::size_t n : {2U, 3U, 4U, 8U, 33U, 64U, 129U}) {
    const auto taxa = TaxonSet::make_numbered(n);
    for (int iter = 0; iter < 25; ++iter) {
      const TreeVector v = random_vector(n, rng);
      const Tree t = vector_to_tree(v, taxa);
      t.validate();
      EXPECT_TRUE(t.is_binary());
      ASSERT_EQ(tree_to_vector(t), v) << "n=" << n;
    }
  }
}

TEST(VectorCodecFuzz, NewickVectorNewickRoundTrip) {
  const std::uint64_t seed = fuzz_seed(0xF30C0DEC);
  SCOPED_TRACE("seed=" + hex_seed(seed));
  util::Rng rng(seed);
  const auto taxa = TaxonSet::make_numbered(24);
  for (int iter = 0; iter < 25; ++iter) {
    const Tree t = sim::yule_tree(taxa, rng);
    const std::string nwk = write_newick(t);
    // Newick -> vector -> Newick: reparse, encode, decode, re-emit.
    const Tree parsed = parse_newick(nwk, taxa);
    const TreeVector v = tree_to_vector(parsed);
    const Tree back = vector_to_tree(v, taxa);
    const std::string nwk2 = write_newick(back);
    const Tree reparsed = parse_newick(nwk2, taxa);
    ASSERT_EQ(rf_between(t, reparsed), 0U);
  }
}

TEST(VectorCodecText, FormatParseRoundTrip) {
  EXPECT_EQ(format_vector(TreeVector{0, 2, 4}), "0,2,4");
  EXPECT_EQ(parse_vector("0,2,4"), (TreeVector{0, 2, 4}));
  EXPECT_EQ(parse_vector("  0 , 1 ,\t2  \n"), (TreeVector{0, 1, 2}));
  EXPECT_EQ(parse_vector("0"), TreeVector{0});
}

TEST(VectorCodecText, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)parse_vector(""), ParseError);
  EXPECT_THROW((void)parse_vector("   \n"), ParseError);
  EXPECT_THROW((void)parse_vector("0,,1"), ParseError);
  EXPECT_THROW((void)parse_vector("0,x"), ParseError);
  EXPECT_THROW((void)parse_vector("-1"), ParseError);
  EXPECT_THROW((void)parse_vector("0 1"), ParseError);
  EXPECT_THROW((void)parse_vector("0,2,"), ParseError);
  // Well-formed integers, out-of-range codes.
  EXPECT_THROW((void)parse_vector("1"), ParseError);
  EXPECT_THROW((void)parse_vector("0,9"), ParseError);
}

std::string valid_corpus(bool with_labels, std::size_t n_taxa = 3,
                         std::size_t n_trees = 2) {
  std::ostringstream out(std::ios::binary);
  std::vector<std::string> labels;
  if (with_labels) {
    for (std::size_t i = 0; i < n_taxa; ++i) {
      labels.push_back("taxon_" + std::to_string(i));
    }
  }
  P2vWriter writer(out, static_cast<std::uint32_t>(n_taxa), labels);
  util::Rng rng(7);
  TreeVector v;
  for (std::size_t i = 0; i < n_trees; ++i) {
    v = random_vector(n_taxa, rng);
    writer.write(v);
  }
  writer.finish();
  return out.str();
}

TEST(VectorCodecP2v, WriteReadRoundTrip) {
  const auto taxa = TaxonSet::make_numbered(9, "sp");
  util::Rng rng(0xBEEF);
  std::vector<TreeVector> vectors;
  for (int i = 0; i < 17; ++i) {
    vectors.push_back(random_vector(9, rng));
  }
  std::ostringstream out(std::ios::binary);
  {
    P2vWriter writer(out, 9, taxa->labels());
    for (const TreeVector& v : vectors) {
      writer.write(v);
    }
    writer.finish();
    EXPECT_EQ(writer.count(), 17U);
  }
  std::istringstream in(out.str(), std::ios::binary);
  P2vReader reader(in);
  EXPECT_EQ(reader.header().n_taxa, 9U);
  EXPECT_EQ(reader.header().n_trees, 17U);
  ASSERT_EQ(reader.header().labels.size(), 9U);
  EXPECT_EQ(reader.header().labels[3], "sp3");
  TreeVector row;
  std::size_t i = 0;
  while (reader.next(row)) {
    ASSERT_LT(i, vectors.size());
    EXPECT_EQ(row, vectors[i]) << "record " << i;
    ++i;
  }
  EXPECT_EQ(i, vectors.size());
}

TEST(VectorCodecP2v, LabelFreeCorpus) {
  const std::string bytes = valid_corpus(/*with_labels=*/false);
  std::istringstream in(bytes, std::ios::binary);
  P2vReader reader(in);
  EXPECT_TRUE(reader.header().labels.empty());
  TreeVector row;
  std::size_t count = 0;
  while (reader.next(row)) {
    ++count;
  }
  EXPECT_EQ(count, 2U);
}

TEST(VectorCodecP2v, RejectsBadMagicAndHeaderFields) {
  {
    std::istringstream in(std::string("NOPE"), std::ios::binary);
    EXPECT_THROW(P2vReader r(in), ParseError);
  }
  {
    std::string bytes = valid_corpus(true);
    bytes[0] = 'X';
    std::istringstream in(bytes, std::ios::binary);
    EXPECT_THROW(P2vReader r(in), ParseError);
  }
  {
    // n_taxa == 0.
    std::string bytes = valid_corpus(false);
    bytes[4] = bytes[5] = bytes[6] = bytes[7] = 0;
    std::istringstream in(bytes, std::ios::binary);
    EXPECT_THROW(P2vReader r(in), ParseError);
  }
  {
    // Unknown flag bit (flags field follows magic+u32+u64 = offset 16).
    std::string bytes = valid_corpus(false);
    bytes[16] = static_cast<char>(bytes[16] | 0x80);
    std::istringstream in(bytes, std::ios::binary);
    EXPECT_THROW(P2vReader r(in), ParseError);
  }
  {
    // Implausible label length: first label's u32 at offset 20.
    std::string bytes = valid_corpus(true);
    bytes[20] = static_cast<char>(0xFF);
    bytes[21] = static_cast<char>(0xFF);
    bytes[22] = static_cast<char>(0xFF);
    bytes[23] = static_cast<char>(0x7F);
    std::istringstream in(bytes, std::ios::binary);
    EXPECT_THROW(P2vReader r(in), ParseError);
  }
}

TEST(VectorCodecP2v, RejectsTruncationAtEveryPrefix) {
  // Exact-consumption discipline: EVERY strict prefix of a valid corpus
  // must fail with ParseError (never a silent short read).
  const std::string bytes = valid_corpus(true);
  TreeVector row;
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::istringstream in(bytes.substr(0, cut), std::ios::binary);
    EXPECT_THROW(
        {
          P2vReader reader(in);
          while (reader.next(row)) {
          }
        },
        ParseError)
        << "prefix length " << cut;
  }
}

TEST(VectorCodecP2v, RejectsTrailingBytes) {
  const std::string bytes = valid_corpus(false) + "x";
  std::istringstream in(bytes, std::ios::binary);
  P2vReader reader(in);
  TreeVector row;
  EXPECT_TRUE(reader.next(row));
  EXPECT_TRUE(reader.next(row));
  EXPECT_THROW((void)reader.next(row), ParseError);
}

TEST(VectorCodecP2v, RejectsOutOfRangeRecordCodes) {
  std::string bytes = valid_corpus(false, /*n_taxa=*/3, /*n_trees=*/1);
  // Record bytes start right after the 20-byte label-free header; poke the
  // first code (v[0], must be 0) to 9.
  bytes[20] = 9;
  std::istringstream in(bytes, std::ios::binary);
  P2vReader reader(in);
  TreeVector row;
  EXPECT_THROW((void)reader.next(row), ParseError);
}

TEST(VectorCodecP2v, WriterValidatesRecords) {
  std::ostringstream out(std::ios::binary);
  P2vWriter writer(out, 4);
  EXPECT_THROW(writer.write(TreeVector{0, 1}), InvalidArgument);  // width
  EXPECT_THROW(writer.write(TreeVector{0, 1, 9}), InvalidArgument);  // range
  writer.write(TreeVector{0, 1, 2});
  writer.finish();
  EXPECT_THROW(writer.write(TreeVector{0, 1, 2}), InvalidArgument);
  EXPECT_EQ(writer.count(), 1U);
}

TEST(VectorCodecP2v, FailedWriteLeavesTheOldCorpus) {
  // Both corpus writers replace their target atomically. A write that
  // throws part-way (a third tree that is not binary; a third row of the
  // wrong width) must leave the old corpus byte for byte and no temp file
  // beside it. Writing in place left a shorter corpus of the rows written
  // so far, which loaded without complaint.
  const auto taxa = TaxonSet::make_numbered(6);
  util::Rng rng(31);
  std::vector<Tree> trees = test::random_collection(taxa, 3, 2, rng);
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("p2v_atomic_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "corpus.p2v").string();
  const auto bytes = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const auto only_the_corpus = [&] {
    std::vector<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      names.push_back(entry.path().filename().string());
    }
    return names == std::vector<std::string>{"corpus.p2v"};
  };
  write_p2v_file(path, trees);
  const std::string old = bytes();
  ASSERT_FALSE(old.empty());

  trees[2] = parse_newick("((t0,t1,t2),(t3,t4,t5));", taxa);
  EXPECT_THROW(write_p2v_file(path, trees), InvalidArgument);
  EXPECT_EQ(bytes(), old);
  EXPECT_TRUE(only_the_corpus());

  const std::vector<TreeVector> rows = {TreeVector{0, 1, 2, 3, 4},
                                        TreeVector{0, 0, 0, 0, 0},
                                        TreeVector{0, 1}};
  EXPECT_THROW(write_p2v_file(path, 6, rows), InvalidArgument);
  EXPECT_EQ(bytes(), old);
  EXPECT_TRUE(only_the_corpus());

  // A write that completes does replace the corpus.
  write_p2v_file(path, 6, std::span(rows).first(2));
  EXPECT_EQ(read_p2v_header(path).n_trees, 2u);
  EXPECT_TRUE(only_the_corpus());
  std::filesystem::remove_all(dir);
}

TEST(VectorCodecExtractor, MatchesTreeExtractorOnRandomTrees) {
  const std::uint64_t seed = fuzz_seed(0xF40C0DEC);
  SCOPED_TRACE("seed=" + hex_seed(seed));
  util::Rng rng(seed);
  VectorBipartitionExtractor vec_extractor;
  BipartitionExtractor tree_extractor;
  for (const std::size_t n : {2U, 3U, 4U, 9U, 31U, 70U, 150U}) {
    const auto taxa = TaxonSet::make_numbered(n);
    for (int iter = 0; iter < 10; ++iter) {
      const Tree t = sim::uniform_tree(taxa, rng);
      const TreeVector v = tree_to_vector(t);
      const Tree rooted = vector_to_tree(v, taxa);
      for (const bool include_trivial : {false, true}) {
        const BipartitionOptions opts{.include_trivial = include_trivial};
        // Sorted: arenas must match in order against BOTH the rooted
        // decode and the original (possibly unrooted) tree.
        const BipartitionSet& direct = vec_extractor.extract(v, opts);
        EXPECT_TRUE(sets_equal(direct, tree_extractor.extract(rooted, opts)))
            << "n=" << n << " trivial=" << include_trivial;
        EXPECT_TRUE(sets_equal(direct, tree_extractor.extract(t, opts)))
            << "n=" << n << " trivial=" << include_trivial << " (unrooted)";
        // Unsorted fast path: same set after a finalize of each side.
        const BipartitionOptions unsorted{.include_trivial = include_trivial,
                                          .sorted = false};
        BipartitionSet du;
        vec_extractor.extract_into(v, unsorted, du);
        BipartitionSet tu;
        tree_extractor.extract_into(rooted, unsorted, tu);
        EXPECT_EQ(du.size(), tu.size());
        du.finalize();
        tu.finalize();
        EXPECT_TRUE(sets_equal(du, tu))
            << "n=" << n << " trivial=" << include_trivial << " (unsorted)";
      }
    }
  }
}

TEST(VectorCodecExtractor, UnsortedArenaIsDuplicateFree) {
  // The degree-2 root duplicate is skipped structurally, so the unsorted
  // arena has exactly the finalized count.
  util::Rng rng(11);
  const auto taxa = TaxonSet::make_numbered(12);
  VectorBipartitionExtractor extractor;
  for (int iter = 0; iter < 10; ++iter) {
    const TreeVector v = random_vector(12, rng);
    BipartitionSet raw;
    extractor.extract_into(v, {.include_trivial = true, .sorted = false}, raw);
    const std::size_t unsorted_count = raw.size();
    raw.finalize();
    EXPECT_EQ(raw.size(), unsorted_count);
    EXPECT_EQ(unsorted_count, 2 * 12 - 3);
  }
}

TEST(VectorCodecExtractor, RejectsValueModes) {
  VectorBipartitionExtractor extractor;
  const TreeVector v{0, 0};
  EXPECT_THROW(
      (void)extractor.extract(v, {.value = SplitValue::BranchLength}),
      InvalidArgument);
}

TEST(VectorCodecExtractor, SingleLeafUniverse) {
  VectorBipartitionExtractor extractor;
  const BipartitionSet& set = extractor.extract(TreeVector{});
  EXPECT_EQ(set.n_bits(), 1U);
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.leaf_mask().count(), 1U);
}

}  // namespace
}  // namespace bfhrf::phylo
