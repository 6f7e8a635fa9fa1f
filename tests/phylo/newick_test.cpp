#include "phylo/newick.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <utility>
#include <vector>

#include "support/test_util.hpp"
#include "util/string_util.hpp"
#include "util/rng.hpp"

namespace bfhrf::phylo {
namespace {

TEST(NewickParseTest, SimpleQuartet) {
  TaxonSetPtr taxa;
  const Tree t = test::tree_of("((A,B),(C,D));", taxa);
  EXPECT_EQ(t.num_leaves(), 4u);
  EXPECT_EQ(taxa->size(), 4u);
  EXPECT_TRUE(t.is_binary());
  t.validate();
}

TEST(NewickParseTest, BranchLengths) {
  TaxonSetPtr taxa;
  const Tree t = test::tree_of("((A:0.1,B:0.2):0.3,(C:1e-2,D:2):4);", taxa);
  double total = 0;
  for (NodeId id = 0; id < static_cast<NodeId>(t.num_nodes()); ++id) {
    if (t.node(id).has_length) {
      total += t.node(id).length;
    }
  }
  EXPECT_NEAR(total, 0.1 + 0.2 + 0.3 + 0.01 + 2 + 4, 1e-12);
}

TEST(NewickParseTest, UnweightedTreesHaveNoLengths) {
  TaxonSetPtr taxa;
  const Tree t = test::tree_of("((A,B),(C,D));", taxa);
  for (NodeId id = 0; id < static_cast<NodeId>(t.num_nodes()); ++id) {
    EXPECT_FALSE(t.node(id).has_length);
  }
}

TEST(NewickParseTest, Multifurcation) {
  TaxonSetPtr taxa;
  const Tree t = test::tree_of("(A,B,C,D,E);", taxa);
  EXPECT_EQ(t.num_leaves(), 5u);
  EXPECT_EQ(t.num_children(t.root()), 5u);
  EXPECT_FALSE(t.is_binary());
}

TEST(NewickParseTest, QuotedLabels) {
  TaxonSetPtr taxa;
  const Tree t =
      test::tree_of("(('Homo sapiens',"
                    "'it''s a label'),(C,D));",
                    taxa);
  EXPECT_TRUE(taxa->contains("Homo sapiens"));
  EXPECT_TRUE(taxa->contains("it's a label"));
  EXPECT_EQ(t.num_leaves(), 4u);
}

TEST(NewickParseTest, CommentsIgnored) {
  TaxonSetPtr taxa;
  const Tree t =
      test::tree_of("((A[&support=1.0],B),(C,D))[nested [comment]];", taxa);
  EXPECT_EQ(t.num_leaves(), 4u);
  EXPECT_EQ(taxa->size(), 4u);
}

TEST(NewickParseTest, InternalLabelsIgnored) {
  TaxonSetPtr taxa;
  const Tree t = test::tree_of("((A,B)90:0.1,(C,D)85:0.2);", taxa);
  EXPECT_EQ(t.num_leaves(), 4u);
  EXPECT_EQ(taxa->size(), 4u);  // 90/85 are not taxa
}

TEST(NewickParseTest, WhitespaceTolerant) {
  TaxonSetPtr taxa;
  const Tree t = test::tree_of("  ( ( A , B ) ,\n ( C , D ) ) ;\n", taxa);
  EXPECT_EQ(t.num_leaves(), 4u);
}

TEST(NewickParseTest, SingleLeaf) {
  TaxonSetPtr taxa;
  const Tree t = test::tree_of("A;", taxa);
  EXPECT_EQ(t.num_leaves(), 1u);
  EXPECT_TRUE(t.is_leaf(t.root()));
}

TEST(NewickParseTest, WideStarParsesInLinearTime) {
  // A group's children append in O(1) through the parent's last-child
  // link. Walking the sibling chain instead made a k-child group O(k^2):
  // this 200,000-leaf star then took about 90 s.
  constexpr std::size_t kLeaves = 200'000;
  std::string text = "(";
  for (std::size_t i = 0; i < kLeaves; ++i) {
    text += (i == 0 ? "t" : ",t") + std::to_string(i);
  }
  text += ");";
  const auto taxa = std::make_shared<TaxonSet>();
  const auto start = std::chrono::steady_clock::now();
  const Tree t = parse_newick(text, taxa);
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  EXPECT_LT(took.count(), 5.0);
  EXPECT_EQ(t.num_leaves(), kLeaves);
  ASSERT_EQ(t.num_children(t.root()), kLeaves);
  EXPECT_EQ(t.node(t.node(t.root()).first_child).taxon, 0);
  t.validate();
}

TEST(NewickParseTest, MissingSemicolonAccepted) {
  TaxonSetPtr taxa;
  const Tree t = test::tree_of("((A,B),(C,D))", taxa);
  EXPECT_EQ(t.num_leaves(), 4u);
}

TEST(NewickParseTest, MalformedInputsThrow) {
  TaxonSetPtr taxa = std::make_shared<TaxonSet>();
  EXPECT_THROW((void)parse_newick("", taxa), ParseError);
  EXPECT_THROW((void)parse_newick("((A,B);", taxa), ParseError);
  EXPECT_THROW((void)parse_newick("(A,B));", taxa), ParseError);
  EXPECT_THROW((void)parse_newick("(A,,B);", taxa), ParseError);
  EXPECT_THROW((void)parse_newick("(A:x,B);", taxa), ParseError);
  EXPECT_THROW((void)parse_newick("(A,'unterminated);", taxa), ParseError);
  EXPECT_THROW((void)parse_newick("(A,B)[unclosed;", taxa), ParseError);
  EXPECT_THROW((void)parse_newick(";", taxa), ParseError);
  EXPECT_THROW((void)parse_newick("(,);", taxa), ParseError);
}

TEST(NewickParseTest, RepeatedTaxonThrowsNamingIt) {
  // A record that names one taxon twice is not a tree over its leaves:
  // extraction would fold the repeats into splits the record never drew
  // ("((A,A),(C,D),(E,F));" read as a tree with one split). The parse and
  // the split pass, and so every reader, reject it with one message.
  const auto expect_rejected = [](const std::string& text,
                                  const std::string& label,
                                  std::size_t n_taxa) {
    SCOPED_TRACE(text);
    const auto fixed = TaxonSet::make_numbered(n_taxa);
    const auto growing = std::make_shared<TaxonSet>();
    NewickSplitExtractor splitter;
    BipartitionSet splits;
    for (int route = 0; route < 2; ++route) {
      try {
        if (route == 0) {
          (void)parse_newick(text, growing);
        } else {
          splitter.extract_into(text, *fixed, {}, splits);
        }
        ADD_FAILURE() << "route " << route << " accepted a repeated taxon";
      } catch (const ParseError& e) {
        EXPECT_EQ(std::string(e.what()),
                  "newick tree names taxon '" + label + "' twice");
      }
    }
  };
  expect_rejected("((t0,t0),(t2,t3),(t4,t5));", "t0", 6);
  expect_rejected("((t0,t1),(t2,t3),(t4,t0));", "t0", 6);
  expect_rejected("(t1,(t2,(t3,t2)));", "t2", 6);
  // Ids on both sides of a word boundary.
  expect_rejected("((t63,t64),(t1,(t64,t2)));", "t64", 70);
  expect_rejected("(t65,t3,'t65');", "t65", 70);
  // A distinct-taxon tree still reads on both routes.
  const auto taxa = TaxonSet::make_numbered(70);
  NewickSplitExtractor splitter;
  BipartitionSet splits;
  splitter.extract_into("((t63,t64),(t1,t65),t0);", *taxa, {}, splits);
  EXPECT_EQ(splits.leaf_mask().count(), 5u);
  EXPECT_EQ(splits.size(), 2u);
  EXPECT_EQ(parse_newick("((t63,t64),(t1,t65),t0);", taxa).num_leaves(), 5u);
}

TEST(NewickParseTest, FrozenTaxonSetRejectsUnknownTaxa) {
  auto taxa = std::make_shared<TaxonSet>(
      std::vector<std::string>{"A", "B", "C", "D"});
  taxa->freeze();
  EXPECT_NO_THROW((void)parse_newick("((A,B),(C,D));", taxa));
  EXPECT_THROW((void)parse_newick("((A,B),(C,E));", taxa), InvalidArgument);
}

TEST(NewickParseTest, UnaryNodesSuppressed) {
  TaxonSetPtr taxa;
  const Tree t = test::tree_of("(((A,B)));", taxa);  // extra wrapping parens
  EXPECT_EQ(t.num_leaves(), 2u);
  EXPECT_EQ(t.num_children(t.root()), 2u);
  // Wrapping parens create unary chains; after suppression the tree is the
  // 2-leaf tree.
  TaxonSetPtr taxa2;
  const Tree t2 = test::tree_of("(((A,B)),(C));", taxa2);
  EXPECT_EQ(t2.num_leaves(), 3u);
  t2.validate();
  for (NodeId id = 0; id < static_cast<NodeId>(t2.num_nodes()); ++id) {
    if (!t2.is_leaf(id)) {
      EXPECT_GE(t2.num_children(id), 2u);
    }
  }
}

TEST(NewickWriteTest, RoundTripTopology) {
  TaxonSetPtr taxa;
  const Tree t = test::tree_of("((A:1,B:2):0.5,(C:3,D:4):0.5,E:9);", taxa);
  const std::string out = write_newick(t);
  const Tree t2 = parse_newick(out, taxa);
  EXPECT_EQ(t2.num_leaves(), t.num_leaves());
  EXPECT_EQ(write_newick(t2), out);  // fixed point after one round trip
}

TEST(NewickWriteTest, QuotesSpecialLabels) {
  TaxonSetPtr taxa = std::make_shared<TaxonSet>();
  Tree t(taxa);
  const NodeId root = t.add_root();
  t.add_leaf(root, taxa->add_or_get("needs quote"));
  t.add_leaf(root, taxa->add_or_get("it's"));
  t.add_leaf(root, taxa->add_or_get("plain"));
  const std::string out = write_newick(t);
  EXPECT_NE(out.find("'needs quote'"), std::string::npos);
  EXPECT_NE(out.find("'it''s'"), std::string::npos);
  // Round trip preserves the labels.
  TaxonSetPtr taxa2 = std::make_shared<TaxonSet>();
  (void)parse_newick(out, taxa2);
  EXPECT_TRUE(taxa2->contains("needs quote"));
  EXPECT_TRUE(taxa2->contains("it's"));
}

TEST(NewickWriteTest, LengthsOmittedOnRequest) {
  TaxonSetPtr taxa;
  const Tree t = test::tree_of("((A:1,B:2):0.5,(C,D));", taxa);
  const std::string out =
      write_newick(t, NewickWriteOptions{.write_lengths = false});
  EXPECT_EQ(out.find(':'), std::string::npos);
}

TEST(NewickReaderTest, StreamsMultipleTrees) {
  std::istringstream in("((A,B),(C,D));\n((A,C),(B,D));\n((A,D),(B,C));\n");
  auto taxa = std::make_shared<TaxonSet>();
  NewickReader reader(in, taxa);
  std::size_t count = 0;
  while (auto t = reader.next()) {
    EXPECT_EQ(t->num_leaves(), 4u);
    ++count;
  }
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(reader.count(), 3u);
}

TEST(NewickReaderTest, HandlesSemicolonInQuotesAndComments) {
  std::istringstream in("(('a;b',B),(C,D));((A[;],B),(C,D));");
  auto taxa = std::make_shared<TaxonSet>();
  NewickReader reader(in, taxa);
  std::size_t count = 0;
  while (auto t = reader.next()) {
    ++count;
  }
  EXPECT_EQ(count, 2u);
  EXPECT_TRUE(taxa->contains("a;b"));
}

TEST(NewickReaderTest, TrailingRecordWithoutSemicolon) {
  std::istringstream in("((A,B),(C,D));((A,C),(B,D))");
  auto taxa = std::make_shared<TaxonSet>();
  NewickReader reader(in, taxa);
  std::size_t count = 0;
  while (auto t = reader.next()) {
    ++count;
  }
  EXPECT_EQ(count, 2u);
}

/// NewickReader's read-ahead block size.
constexpr std::size_t kBlock = 64 * 1024;

/// Complete filler records, then spaces, so that `record` starts at
/// byte `offset` of the stream. Returns the stream text and the number of
/// filler records.
std::pair<std::string, std::size_t> place_at(std::size_t offset,
                                             const std::string& record) {
  const std::string filler = "((A,B),(C,D));\n";
  std::string text;
  std::size_t fillers = 0;
  while (text.size() + filler.size() < offset) {
    text += filler;
    ++fillers;
  }
  text.append(offset - text.size(), ' ');
  return {text + record + "\n((A,C),(B,D));\n", fillers};
}

/// Frame every record of `text`.
std::vector<std::string> frame_all(const std::string& text) {
  std::istringstream in(text);
  NewickReader reader(in, std::make_shared<TaxonSet>());
  std::vector<std::string> records;
  std::string record;
  while (reader.next_record(record)) {
    records.push_back(record);
  }
  EXPECT_TRUE(record.empty());
  EXPECT_EQ(reader.count(), records.size());
  return records;
}

TEST(NewickReaderTest, RecordStraddlesBlockBoundary) {
  const std::string rec = "((A,B),(C,(D,E)));";
  for (const std::size_t cut : {std::size_t{1}, std::size_t{9}, rec.size() - 1,
                                rec.size()}) {
    const auto [text, fillers] = place_at(kBlock - cut, rec);
    const std::vector<std::string> records = frame_all(text);
    ASSERT_EQ(records.size(), fillers + 2) << "cut " << cut;
    EXPECT_EQ(util::trim(records[fillers]), rec) << "cut " << cut;
    auto taxa = std::make_shared<TaxonSet>();
    EXPECT_EQ(parse_newick(records[fillers], taxa).num_leaves(), 5u);
  }
}

TEST(NewickReaderTest, QuotedSemicolonAcrossBlockBoundary) {
  // The quote opens in the first block; its ';' and the closing quote sit
  // in the second, so the framer must carry its quote state across.
  const std::string rec = "(('x;y',B),(C,D));";
  const auto [text, fillers] = place_at(kBlock - 4, rec);
  ASSERT_EQ(text[kBlock - 1], 'x');
  ASSERT_EQ(text[kBlock], ';');
  const std::vector<std::string> records = frame_all(text);
  ASSERT_EQ(records.size(), fillers + 2);
  EXPECT_EQ(util::trim(records[fillers]), rec);
  auto taxa = std::make_shared<TaxonSet>();
  (void)parse_newick(records[fillers], taxa);
  EXPECT_TRUE(taxa->contains("x;y"));
}

TEST(NewickReaderTest, NestedCommentAcrossBlockBoundary) {
  const std::string rec = "((A[a[b;]c;],B),(C,D));";
  // "[a[b" ends the first block; ";]c;]" opens the second.
  const auto [text, fillers] = place_at(kBlock - 7, rec);
  ASSERT_EQ(text.substr(kBlock - 4, 4), "[a[b");
  const std::vector<std::string> records = frame_all(text);
  ASSERT_EQ(records.size(), fillers + 2);
  EXPECT_EQ(util::trim(records[fillers]), rec);
  auto taxa = std::make_shared<TaxonSet>();
  EXPECT_EQ(parse_newick(records[fillers], taxa).num_leaves(), 4u);
  EXPECT_EQ(taxa->size(), 4u);
}

TEST(NewickReaderTest, CrlfSeparators) {
  std::istringstream in("((A,B),(C,D));\r\n((A,C),(B,D));\r\n\r\n");
  auto taxa = std::make_shared<TaxonSet>();
  NewickReader reader(in, taxa);
  std::size_t count = 0;
  while (auto t = reader.next()) {
    EXPECT_EQ(t->num_leaves(), 4u);
    ++count;
  }
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(taxa->size(), 4u);
}

TEST(NewickReaderTest, TrailingRecordWithoutSemicolonIsFramed) {
  // The unterminated last record also crosses the block boundary.
  const std::string rec = "((A,C),(B,E))";
  std::string text = place_at(kBlock - 5, "").first + rec + "  \n";
  text.erase(text.find("\n((A,C),(B,D));"));  // drop place_at's tail record
  text += " " + rec + "\n";
  const std::vector<std::string> records = frame_all(text);
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(util::trim(records.back()), rec);
  auto taxa = std::make_shared<TaxonSet>();
  EXPECT_EQ(parse_newick(records.back(), taxa).num_leaves(), 4u);
}

/// The sorted splits parse_newick + BipartitionExtractor give for `text`.
BipartitionSet parsed_splits(const std::string& text, const TaxonSetPtr& taxa,
                             bool include_trivial) {
  return extract_bipartitions(parse_newick(text, taxa),
                              {.include_trivial = include_trivial});
}

/// The sorted splits the split pass gives for `text`.
BipartitionSet text_splits(const std::string& text, const TaxonSet& taxa,
                           bool include_trivial) {
  NewickSplitExtractor splitter;
  BipartitionSet out;
  splitter.extract_into(text, taxa, {.include_trivial = include_trivial},
                        out);
  return out;
}

/// The same splits in the same order, with the same fingerprints and leaf
/// mask.
bool same_set(const BipartitionSet& a, const BipartitionSet& b) {
  if (a.size() != b.size() || a.n_bits() != b.n_bits() ||
      a.leaf_mask() != b.leaf_mask()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!util::equal_words(a[i], b[i]) ||
        a.fingerprints()[i] != b.fingerprints()[i]) {
      return false;
    }
  }
  return true;
}

TEST(NewickSplitExtractorTest, UnaryGroupsAndLoneLeavesMatchTheParsedTree) {
  // The split pass folds what the parse suppresses: a unary group closes
  // like any other and the finish drops the split it repeats; a one-leaf
  // record folds as a group around its leaf. The root may be unary too.
  const auto taxa = std::make_shared<TaxonSet>(
      std::vector<std::string>{"A", "B", "C", "D", "E", "F"});
  taxa->freeze();
  for (const char* text :
       {"(((A,B)),(C),(D,(E,F)));", "((((A,B),(C,D)),(E,F)));",
        "(((A,B),((C))),((D,E)),F);", "((A,(B)),C,D,E,F);", "((A));",
        "(A);", "A;", "'B':0.5;"}) {
    for (const bool include_trivial : {false, true}) {
      SCOPED_TRACE(std::string(text) +
                   " include_trivial=" + std::to_string(include_trivial));
      EXPECT_TRUE(same_set(text_splits(text, *taxa, include_trivial),
                           parsed_splits(text, taxa, include_trivial)));
    }
  }
  EXPECT_TRUE(text_splits("A;", *taxa, true).empty());
  EXPECT_EQ(text_splits("A;", *taxa, true).leaf_mask().count(), 1u);
}

TEST(NewickSplitExtractorTest, UnknownLabelThrowsWithoutWritingTheSet) {
  // The split pass only looks labels up: a label outside a namespace that
  // is not frozen still throws, naming it, and the set never grows.
  auto taxa = std::make_shared<TaxonSet>(
      std::vector<std::string>{"A", "B", "C", "D"});
  NewickSplitExtractor splitter;
  BipartitionSet out;
  splitter.extract_into("((A,B),(C,D));", *taxa, {}, out);
  EXPECT_EQ(out.leaf_mask().count(), 4u);
  for (const char* text : {"((A,B),(C,NEWTAXON));", "NEWTAXON;"}) {
    try {
      splitter.extract_into(text, *taxa, {}, out);
      FAIL() << "an unknown label must throw: " << text;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("'NEWTAXON'"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(taxa->size(), 4u);  // never grown, frozen or not
  EXPECT_FALSE(taxa->frozen());
  EXPECT_THROW(splitter.extract_into("((A,B),(C,D);", *taxa, {}, out),
               ParseError);
  // Lengths and supports need a Tree; the split pass refuses them up front.
  EXPECT_THROW(
      splitter.extract_into("((A,B),(C,D));", *taxa,
                            {.value = SplitValue::BranchLength}, out),
      InvalidArgument);
}

TEST(NewickFileTest, WriteReadRoundTrip) {
  const auto taxa = TaxonSet::make_numbered(20);
  util::Rng rng(3);
  const auto trees = test::random_collection(taxa, 10, 3, rng, true);

  const std::string path = ::testing::TempDir() + "/bfhrf_newick_rt.nwk";
  write_newick_file(path, trees);
  auto taxa2 = std::make_shared<TaxonSet>();
  const auto back = read_newick_file(path, taxa2);
  ASSERT_EQ(back.size(), trees.size());
  EXPECT_EQ(taxa2->size(), taxa->size());
  for (const auto& t : back) {
    EXPECT_EQ(t.num_leaves(), 20u);
  }
}

TEST(NewickFileTest, MissingFileThrows) {
  auto taxa = std::make_shared<TaxonSet>();
  EXPECT_THROW((void)read_newick_file("/nonexistent/x.nwk", taxa),
               ParseError);
}

TEST(NewickParseTest, LargeRandomTreesRoundTrip) {
  const auto taxa = TaxonSet::make_numbered(500);
  util::Rng rng(11);
  for (int rep = 0; rep < 5; ++rep) {
    const Tree t = sim::uniform_tree(taxa, rng);
    const std::string s = write_newick(t);
    const Tree back = parse_newick(s, taxa);
    EXPECT_EQ(back.num_leaves(), 500u);
    EXPECT_EQ(write_newick(back), s);
  }
}

}  // namespace
}  // namespace bfhrf::phylo
