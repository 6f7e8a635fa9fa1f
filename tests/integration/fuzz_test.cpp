// Robustness ("fuzz-lite") suite: randomly corrupted inputs must either
// parse to a valid tree or throw a typed bfhrf::Error — never crash,
// hang, or corrupt state. Every test draws its seed through
// test::fuzz_seed, so the defaults are deterministic yet any failure can
// be replayed with `--seed=N` (or BFHRF_FUZZ_SEED); the seed is printed
// up front and attached to assertion traces.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "core/bfhrf.hpp"
#include "core/frequency_hash.hpp"
#include "core/index_file.hpp"
#include "core/serialize.hpp"
#include "phylo/bipartition.hpp"
#include "phylo/newick.hpp"
#include "phylo/nexus.hpp"
#include "phylo/vector_codec.hpp"
#include "support/test_util.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace bfhrf {
namespace {

/// Apply `edits` random single-character mutations (replace/insert/delete).
std::string mutate(std::string s, std::size_t edits, util::Rng& rng) {
  static constexpr char kAlphabet[] = "(),;:'[]ABC012. \t_-e";
  for (std::size_t e = 0; e < edits && !s.empty(); ++e) {
    const std::size_t pos = rng.below(s.size());
    switch (rng.below(3)) {
      case 0:
        s[pos] = kAlphabet[rng.below(sizeof kAlphabet - 1)];
        break;
      case 1:
        s.insert(pos, 1, kAlphabet[rng.below(sizeof kAlphabet - 1)]);
        break;
      default:
        s.erase(pos, 1);
        break;
    }
  }
  return s;
}

/// Whitespace and [comments] the cursor skips between tokens.
std::string gap(util::Rng& rng) {
  static const char* const kGaps[] = {
      "", "", "", " ", "\t", "\r\n", "\n", " [c] ", "[a [nested] note]",
      "[(,);:']"};
  return kGaps[rng.below(std::size(kGaps))];
}

/// A label as Newick text: quoted (with '' escapes) when it must be, and
/// sometimes when it need not be.
std::string label_text(const std::string& label, util::Rng& rng) {
  if (label.find_first_of("()[]',:; \t\r\n") == std::string::npos &&
      !rng.bernoulli(0.2)) {
    return label;
  }
  std::string out = "'";
  for (const char c : label) {
    out += c == '\'' ? std::string("''") : std::string(1, c);
  }
  return out + "'";
}

/// An optional ":length", in plain and exponent forms.
std::string length_text(util::Rng& rng) {
  static const char* const kLengths[] = {"0.1",  "1",        "2.5e-3", "1E+2",
                                         "0.000", "3.25E-05", "7e1"};
  if (rng.bernoulli(0.5)) {
    return "";
  }
  return gap(rng) + ":" + gap(rng) + kLengths[rng.below(std::size(kLengths))];
}

/// An optional internal label after ')': supports and names.
std::string internal_text(util::Rng& rng) {
  static const char* const kLabels[] = {"95", "0.87", "1e2", "n1",
                                        "'node label'", "'a''b(c)'"};
  return rng.bernoulli(0.5) ? "" : kLabels[rng.below(std::size(kLabels))];
}

/// What a written record carries besides a clean tree: a unary group (the
/// parse suppresses it, the split pass folds it), a repeated taxon or a
/// label outside the namespace (both errors).
enum class Feature { None, Unary, Repeated, Unknown };

/// A decorated Newick writer: random quoting, comments, whitespace (tab,
/// CR, LF), lengths, internal labels and supports. `feature` applies at
/// node `target`: unary groups wrapped around it, or (at a leaf) another
/// leaf's label or a label outside the namespace.
struct DecoratedWriter {
  const phylo::Tree& tree;
  util::Rng& rng;
  Feature feature = Feature::None;
  phylo::NodeId target = phylo::kNoNode;
  std::string other_label;  ///< for Feature::Repeated

  std::string subtree(phylo::NodeId id) {
    std::string out;
    if (tree.is_leaf(id)) {
      std::string label = tree.taxa()->label_of(tree.node(id).taxon);
      if (id == target && feature == Feature::Repeated) {
        label = other_label;
      } else if (id == target && feature == Feature::Unknown) {
        label = "no such taxon";
      }
      out = gap(rng) + label_text(label, rng) + length_text(rng) + gap(rng);
    } else {
      out = group(tree.children(id));
    }
    if (id == target && feature == Feature::Unary) {
      const std::uint64_t depth = 1 + rng.below(3);
      for (std::uint64_t k = 0; k < depth; ++k) {
        out = "(" + out + ")" + internal_text(rng) + length_text(rng);
      }
    }
    return out;
  }

  std::string group(const std::vector<phylo::NodeId>& kids) {
    std::string out = "(";
    for (std::size_t i = 0; i < kids.size(); ++i) {
      out += (i == 0 ? "" : ",") + subtree(kids[i]);
    }
    return out + ")" + internal_text(rng) + length_text(rng) + gap(rng);
  }

  /// The whole record. `root_degree_two` regroups a root of degree three
  /// or more as (child, (rest)) or ((rest), child), so the root twin is
  /// sometimes a leaf and sometimes a group, first or second.
  std::string record(bool root_degree_two) {
    std::string body;
    const phylo::NodeId root = tree.root();
    std::vector<phylo::NodeId> kids = tree.children(root);
    if (root_degree_two && kids.size() >= 3) {
      const std::size_t pick = rng.below(kids.size());
      const std::string one = subtree(kids[pick]);
      kids.erase(kids.begin() + static_cast<std::ptrdiff_t>(pick));
      const std::string rest = group(kids);
      body = rng.bernoulli(0.5) ? "(" + one + "," + rest + ")"
                                : "(" + rest + "," + one + ")";
      body += internal_text(rng) + length_text(rng);
    } else {
      body = subtree(root);
    }
    return gap(rng) + body + gap(rng) + ";" + gap(rng);
  }
};

/// One route's answer for a record: its arena, fingerprints and leaf mask,
/// or the exception it threw (type and message).
struct RouteResult {
  std::string error_type;
  std::string error;
  std::size_t n_bits = 0;
  std::size_t count = 0;
  std::vector<std::uint64_t> arena;
  std::vector<std::uint64_t> fingerprints;
  std::vector<std::uint64_t> leaf_mask;

  void take(const phylo::BipartitionSet& set) {
    n_bits = set.n_bits();
    count = set.size();
    const util::ConstWordSpan a = set.arena_view();
    arena.assign(a.begin(), a.end());
    fingerprints.assign(set.fingerprints().begin(), set.fingerprints().end());
    const util::ConstWordSpan m = set.leaf_mask().words();
    leaf_mask.assign(m.begin(), m.end());
  }

  void take(const Error& e) {
    error_type = typeid(e).name();
    error = e.what();
  }

  bool operator==(const RouteResult&) const = default;
};

/// The reference route: parse_newick over a frozen namespace, then
/// BipartitionExtractor::extract_into (its splits stay in `out`).
RouteResult tree_route(const std::string& text,
                       const phylo::TaxonSetPtr& taxa,
                       const phylo::BipartitionOptions& opts,
                       phylo::BipartitionExtractor& extractor,
                       phylo::BipartitionSet& out) {
  RouteResult r;
  try {
    extractor.extract_into(phylo::parse_newick(text, taxa), opts, out);
    r.take(out);
  } catch (const Error& e) {
    r.take(e);
  }
  return r;
}

/// The engine's one route: NewickSplitExtractor straight from the text.
RouteResult split_route(const std::string& text, const phylo::TaxonSet& taxa,
                        const phylo::BipartitionOptions& opts,
                        phylo::NewickSplitExtractor& extractor,
                        phylo::BipartitionSet& out) {
  RouteResult r;
  try {
    extractor.extract_into(text, taxa, opts, out);
    r.take(out);
  } catch (const Error& e) {
    r.take(e);
  }
  return r;
}

TEST(FuzzTest, FusedSplitsMatchTreeExtraction) {
  // The split pass answers every record, and must answer what parse +
  // extract gives: the same arena bytes and fingerprints in the same
  // order and the same leaf mask, or the same exception. Two things may
  // differ. A record with a unary group comes out sorted even unsorted,
  // because the finish dedups the split the group repeats where the parse
  // suppressed the group. And an unknown label's message is TaxonSet's
  // "unknown taxon '<label>'", which the frozen parse extends. n = 64, 65
  // and 130 cross the word boundary (1-, 2- and 3-word keys).
  const std::uint64_t seed = test::fuzz_seed(0xF427);
  SCOPED_TRACE("seed=" + test::hex_seed(seed));
  util::Rng rng(seed);
  phylo::NewickSplitExtractor fused;
  phylo::BipartitionExtractor extractor;
  phylo::BipartitionSet fused_set;
  phylo::BipartitionSet tree_set;
  std::size_t answered = 0;
  std::size_t reordered = 0;
  std::size_t errors = 0;

  // Every input runs through both routes under the four option pairs.
  // `unary`: 1 = the record has a unary group, 0 = it has none, -1 =
  // either (mutated and truncated text). `clean`: the record must answer.
  const auto check = [&](const std::string& text,
                         const phylo::TaxonSetPtr& taxa, int unary,
                         bool clean) {
    for (const bool include_trivial : {false, true}) {
      for (const bool sorted : {false, true}) {
        SCOPED_TRACE("include_trivial=" + std::to_string(include_trivial) +
                     " sorted=" + std::to_string(sorted) + " text=" + text);
        const phylo::BipartitionOptions opts{.include_trivial = include_trivial,
                                             .sorted = sorted};
        const RouteResult expect =
            tree_route(text, taxa, opts, extractor, tree_set);
        const RouteResult got = split_route(text, *taxa, opts, fused, fused_set);
        if (clean) {
          EXPECT_TRUE(expect.error.empty()) << expect.error;
        }
        if (!expect.error.empty()) {
          ++errors;
          EXPECT_EQ(got.error_type, expect.error_type) << got.error;
          if (got.error_type == typeid(InvalidArgument).name()) {
            EXPECT_TRUE(got.error.starts_with("unknown taxon '") &&
                        expect.error.starts_with(got.error))
                << got.error << " | " << expect.error;
          } else {
            EXPECT_EQ(got.error, expect.error);
          }
          continue;
        }
        ++answered;
        if (got == expect) {
          continue;
        }
        // Only a unary group may reorder an unsorted arena, into the
        // sorted order of the same splits.
        EXPECT_TRUE(!sorted && unary != 0) << "arena differs";
        ++reordered;
        phylo::BipartitionSet want = tree_set;
        want.finalize();
        RouteResult sorted_expect;
        sorted_expect.take(want);
        EXPECT_EQ(got, sorted_expect);
      }
    }
  };

  for (const std::size_t n : {std::size_t{4}, std::size_t{12}, std::size_t{64},
                              std::size_t{65}, std::size_t{130}}) {
    // A namespace whose labels need quoting: quotes, brackets, separators.
    static const char* const kStems[] = {"t", "Taxon ", "a'b", "x(y)",
                                         "p,q:", "[b];", "tab\t"};
    std::vector<std::string> labels;
    for (std::size_t i = 0; i < n; ++i) {
      labels.push_back(kStems[rng.below(std::size(kStems))] +
                       std::to_string(i));
    }
    const auto taxa = std::make_shared<phylo::TaxonSet>(labels);
    taxa->freeze();
    for (int rep = 0; rep < 24; ++rep) {
      SCOPED_TRACE("n=" + std::to_string(n) + " rep=" + std::to_string(rep));
      // Binary (degree-3 root), multifurcating, caterpillar, and a tree
      // over a subset of the namespace.
      phylo::Tree t = [&] {
        switch (rep % 4) {
          case 0:
            return sim::yule_tree(taxa, rng);
          case 1:
            return sim::multifurcating_tree(taxa, rng, 0.5);
          case 2:
            return sim::caterpillar_tree(taxa, rng);
          default: {
            std::vector<std::string> subset = labels;
            rng.shuffle(subset);
            subset.resize(3 + rng.below(n - 2));
            return sim::uniform_tree(
                std::make_shared<phylo::TaxonSet>(subset), rng);
          }
        }
      }();
      const std::vector<phylo::NodeId> leaves = t.leaves();
      const std::size_t pick = rng.below(leaves.size());
      const phylo::NodeId leaf = leaves[pick];
      const phylo::NodeId other =
          leaves[(pick + 1 + rng.below(leaves.size() - 1)) % leaves.size()];
      DecoratedWriter writer{.tree = t,
                             .rng = rng,
                             .feature = Feature::None,
                             .target = phylo::kNoNode,
                             .other_label = {}};
      const std::string clean = writer.record(rng.bernoulli(0.5));
      check(clean, taxa, 0, true);

      writer.target = leaf;
      writer.feature = Feature::Unknown;
      check(writer.record(rng.bernoulli(0.5)), taxa, 0, false);
      writer.feature = Feature::Repeated;
      writer.other_label = t.taxa()->label_of(t.node(other).taxon);
      check(writer.record(rng.bernoulli(0.5)), taxa, 0, false);
      // Unary groups anywhere, the root included (which record() writes
      // as is only without the degree-2 regrouping).
      writer.feature = Feature::Unary;
      writer.target = static_cast<phylo::NodeId>(rng.below(t.num_nodes()));
      check(writer.record(writer.target != t.root() && rng.bernoulli(0.5)),
            taxa, 1, true);
      // A lone leaf, bare and wrapped in unary groups.
      const std::string lone =
          label_text(labels[rng.below(n)], rng) + length_text(rng);
      check(gap(rng) + lone + gap(rng) + ";", taxa, 0, true);
      check("((" + lone + "))" + internal_text(rng) + ";", taxa, 1, true);

      for (int m = 0; m < 3; ++m) {
        check(mutate(clean, 1 + rng.below(6), rng), taxa, -1, false);
      }
      check(clean.substr(0, rng.below(clean.size())), taxa, -1, false);
    }
  }
  // Liveness: records were answered, some reordered by a unary group, and
  // the error path was exercised.
  EXPECT_GT(answered, 0u);
  EXPECT_GT(reordered, 0u);
  EXPECT_GT(errors, 0u);
}

/// A reference extractor that shares no code with the extractors' fold or
/// finish: one DynamicBitset per node, OR-ed up over Tree::postorder();
/// each non-root node's side filtered by its size, canonicalized by
/// canonicalize_bipartition and appended; then BipartitionSet::finalize
/// sorts, removes repeats and merges their values.
phylo::BipartitionSet naive_splits(const phylo::Tree& tree,
                                   const phylo::BipartitionOptions& opts) {
  const std::size_t n_bits = tree.taxa()->size();
  std::vector<util::DynamicBitset> masks(tree.num_nodes(),
                                         util::DynamicBitset(n_bits));
  const std::vector<phylo::NodeId> order = tree.postorder();
  for (const phylo::NodeId id : order) {
    util::DynamicBitset& mask = masks[static_cast<std::size_t>(id)];
    if (tree.is_leaf(id)) {
      mask.set(static_cast<std::size_t>(tree.node(id).taxon));
    }
    tree.for_each_child(
        id, [&](phylo::NodeId c) { mask |= masks[static_cast<std::size_t>(c)]; });
  }
  const util::DynamicBitset& leaf_mask =
      masks[static_cast<std::size_t>(tree.root())];
  const std::size_t leaves = leaf_mask.count();
  const std::size_t min_side = opts.include_trivial ? 1 : 2;
  phylo::BipartitionSet out(n_bits);
  if (opts.value == phylo::SplitValue::Support) {
    out.set_value_merge(phylo::BipartitionSet::ValueMerge::Max);
  }
  for (const phylo::NodeId id : order) {
    util::DynamicBitset side = masks[static_cast<std::size_t>(id)];
    const std::size_t ones = side.count();
    if (tree.is_root(id) || ones < min_side || ones + min_side > leaves) {
      continue;
    }
    phylo::canonicalize_bipartition(side, leaf_mask);
    switch (opts.value) {
      case phylo::SplitValue::None:
        out.append(side.words());
        break;
      case phylo::SplitValue::BranchLength:
        out.append(side.words(), tree.node(id).length);
        break;
      case phylo::SplitValue::Support:
        out.append(side.words(), tree.node(id).support);
        break;
    }
  }
  out.set_leaf_mask(leaf_mask);
  out.finalize();
  return out;
}

/// A copy of `src` with chains of unary nodes above random nodes, and
/// sometimes a root whose only child is the old root. Every node gets a
/// random length and support.
phylo::Tree with_unary_nodes(const phylo::Tree& src, util::Rng& rng) {
  phylo::Tree out(src.taxa());
  const auto decorate = [&](phylo::NodeId id) {
    out.set_length(id, rng.uniform_real(0.0, 1.0));
    out.set_support(id, rng.uniform_real(0.0, 100.0));
  };
  struct Item {
    phylo::NodeId old_id;
    phylo::NodeId new_parent;
  };
  phylo::NodeId top = out.add_root();
  if (rng.bernoulli(0.3)) {
    top = out.add_child(top);
    decorate(top);
  }
  std::vector<Item> stack;
  const auto push_children = [&](phylo::NodeId old_id, phylo::NodeId parent) {
    const std::vector<phylo::NodeId> kids = src.children(old_id);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.push_back({*it, parent});
    }
  };
  push_children(src.root(), top);
  while (!stack.empty()) {
    const Item item = stack.back();
    stack.pop_back();
    phylo::NodeId parent = item.new_parent;
    while (rng.bernoulli(0.3)) {
      parent = out.add_child(parent);
      decorate(parent);
    }
    const phylo::NodeId id =
        src.is_leaf(item.old_id)
            ? out.add_leaf(parent, src.node(item.old_id).taxon)
            : out.add_child(parent);
    decorate(id);
    push_children(item.old_id, id);
  }
  return out;
}

/// Whether some internal node of `tree` has exactly one child.
bool has_unary_node(const phylo::Tree& tree) {
  for (phylo::NodeId id = 0; id < static_cast<phylo::NodeId>(tree.num_nodes());
       ++id) {
    if (!tree.is_leaf(id) && tree.num_children(id) == 1) {
      return true;
    }
  }
  return false;
}

/// Tree kinds front_end_tree draws.
constexpr int kFrontEndTreeKinds = 7;

/// A random tree of one of kFrontEndTreeKinds kinds over `taxa`, with
/// branch lengths: Yule, uniform, caterpillar, multifurcating, a tree over
/// a subset of the namespace, a hand-built tree with unary nodes, and a
/// rooted binary tree (a degree-2 root, whose two root edges are one
/// split).
phylo::Tree front_end_tree(int kind, const phylo::TaxonSetPtr& taxa,
                           util::Rng& rng) {
  const sim::GeneratorOptions lengths{.branch_lengths = true};
  const std::size_t n = taxa->size();
  switch (kind) {
    case 0:
      return sim::yule_tree(taxa, rng, lengths);
    case 1:
      return sim::uniform_tree(taxa, rng, lengths);
    case 2:
      return sim::caterpillar_tree(taxa, rng, lengths);
    case 3:
      return sim::multifurcating_tree(taxa, rng, 0.5, lengths);
    case 4: {
      std::vector<std::string> subset = taxa->labels();
      rng.shuffle(subset);
      subset.resize(3 + rng.below(n - 2));
      const phylo::Tree small = sim::uniform_tree(
          std::make_shared<phylo::TaxonSet>(subset), rng, lengths);
      return phylo::parse_newick(phylo::write_newick(small), taxa);
    }
    case 5:
      return with_unary_nodes(sim::yule_tree(taxa, rng), rng);
    default:
      return phylo::vector_to_tree(
          phylo::tree_to_vector(sim::uniform_tree(taxa, rng)), taxa);
  }
}

/// `got` against the reference: the same splits with the same values and
/// leaf mask. An unsorted arena must hold them once each, in any order.
/// Values compare to a relative 1e-12: a split repeated down a unary chain
/// sums its lengths in whatever order the sort leaves the repeats.
testing::AssertionResult same_splits(phylo::BipartitionSet got,
                                     const phylo::BipartitionSet& want) {
  const std::size_t emitted = got.size();
  got.finalize();
  if (got.size() != emitted) {
    return testing::AssertionFailure()
           << emitted << " splits emitted, " << got.size() << " unique";
  }
  RouteResult a;
  RouteResult b;
  a.take(got);
  b.take(want);
  if (!(a == b)) {
    return testing::AssertionFailure()
           << "splits differ: " << a.count << " vs " << b.count
           << " (n_bits " << a.n_bits << " vs " << b.n_bits << ")";
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::abs(got.value(i) - want.value(i)) >
        1e-12 * std::max(1.0, std::abs(want.value(i)))) {
      return testing::AssertionFailure()
             << "value " << i << ": " << got.value(i) << " vs "
             << want.value(i);
    }
  }
  return testing::AssertionSuccess();
}

TEST(FuzzTest, FrontEndsMatchNaiveReference) {
  // Every front end against a reference that shares no code with their
  // fold and finish: the Tree walk (all three value modes), the Newick
  // split pass over write_newick's text (unary groups and a lone leaf
  // included), and the vector extractor over the rows of binary trees
  // that cover every taxon; each in all four include_trivial x sorted
  // cells. n = 64, 65 and 130 cross the word boundary.
  const std::uint64_t seed = test::fuzz_seed(0xF428);
  SCOPED_TRACE("seed=" + test::hex_seed(seed));
  util::Rng rng(seed);
  phylo::BipartitionExtractor tree_extractor;
  phylo::NewickSplitExtractor newick_extractor;
  phylo::VectorBipartitionExtractor vector_extractor;
  phylo::BipartitionSet got;
  std::size_t newick_records = 0;
  std::size_t newick_unary = 0;
  std::size_t vector_rows = 0;
  for (const std::size_t n : {std::size_t{4}, std::size_t{12}, std::size_t{64},
                              std::size_t{65}, std::size_t{130}}) {
    const auto taxa = phylo::TaxonSet::make_numbered(n);
    // One more rep than the kinds' multiple: a lone leaf.
    for (int rep = 0; rep <= 28; ++rep) {
      SCOPED_TRACE("n=" + std::to_string(n) + " rep=" + std::to_string(rep));
      phylo::Tree t =
          rep == 28 ? phylo::parse_newick(
                          "t" + std::to_string(rng.below(n)) + ":0.5;", taxa)
                    : front_end_tree(rep % kFrontEndTreeKinds, taxa, rng);
      for (phylo::NodeId id = 0;
           id < static_cast<phylo::NodeId>(t.num_nodes()); ++id) {
        if (!t.node(id).has_length) {
          t.set_length(id, rng.uniform_real(0.0, 1.0));
        }
        if (!t.node(id).has_support) {
          t.set_support(id, rng.uniform_real(0.0, 100.0));
        }
      }
      const bool unary = has_unary_node(t);
      const bool full_binary = t.is_binary() && t.num_leaves() == n;
      const std::string text = phylo::write_newick(t);
      const phylo::TreeVector row =
          full_binary ? phylo::tree_to_vector(t) : phylo::TreeVector{};

      for (const bool include_trivial : {false, true}) {
        for (const bool sorted : {false, true}) {
          SCOPED_TRACE("include_trivial=" + std::to_string(include_trivial) +
                       " sorted=" + std::to_string(sorted));
          for (const phylo::SplitValue value :
               {phylo::SplitValue::None, phylo::SplitValue::BranchLength,
                phylo::SplitValue::Support}) {
            const phylo::BipartitionOptions opts{
                .include_trivial = include_trivial,
                .value = value,
                .sorted = sorted};
            tree_extractor.extract_into(t, opts, got);
            EXPECT_TRUE(same_splits(got, naive_splits(t, opts)))
                << "Tree path, value mode " << static_cast<int>(value);
          }
          const phylo::BipartitionOptions opts{
              .include_trivial = include_trivial, .sorted = sorted};
          const phylo::BipartitionSet want = naive_splits(t, opts);

          newick_extractor.extract_into(text, *taxa, opts, got);
          ++newick_records;
          newick_unary += unary ? 1 : 0;
          EXPECT_TRUE(same_splits(got, want)) << "Newick path: " << text;

          if (full_binary) {
            ++vector_rows;
            vector_extractor.extract_into(row, opts, got);
            EXPECT_TRUE(same_splits(got, want)) << "vector path";
          }
        }
      }
    }
  }
  // Liveness: each route was exercised, unary records included.
  EXPECT_GT(newick_records, newick_unary);
  EXPECT_GT(newick_unary, 0u);
  EXPECT_GT(vector_rows, 0u);
}

/// Every split's fingerprint in `set` is util::fingerprint of its words.
testing::AssertionResult fingerprints_match(const phylo::BipartitionSet& set) {
  if (set.fingerprints().size() != set.size()) {
    return testing::AssertionFailure()
           << set.fingerprints().size() << " fingerprints for " << set.size()
           << " splits";
  }
  for (std::size_t i = 0; i < set.size(); ++i) {
    const std::uint64_t want = util::fingerprint(set[i]);
    if (set.fingerprints()[i] != want) {
      return testing::AssertionFailure()
             << "split " << i << " of " << set.size() << ": folded 0x"
             << std::hex << set.fingerprints()[i] << ", words give 0x" << want;
    }
  }
  return testing::AssertionSuccess();
}

TEST(FuzzTest, FoldedFingerprintsMatchTheWords) {
  // Each extractor folds a linear fingerprint next to its masks and flips
  // it with the canonical polarity; the column it leaves must equal
  // util::fingerprint of each kept split's words, in arena order, through
  // the sort and dedup. The Tree walk (also in the two value modes, which
  // sort and merge), the Newick split pass (unary records and lone leaves
  // included) and the vector rows of full binary trees, in all four
  // include_trivial x sorted cells. n = 63, 64, 65 and 130 straddle word
  // boundaries; n = 1000 is 16 words.
  const std::uint64_t seed = test::fuzz_seed(0xF1A7);
  SCOPED_TRACE("seed=" + test::hex_seed(seed));
  util::Rng rng(seed);
  phylo::BipartitionExtractor tree_extractor;
  phylo::NewickSplitExtractor newick_extractor;
  phylo::VectorBipartitionExtractor vector_extractor;
  phylo::BipartitionSet got;
  std::size_t checked = 0;
  std::size_t newick_records = 0;
  std::size_t vector_rows = 0;
  for (const std::size_t n :
       {std::size_t{4}, std::size_t{12}, std::size_t{63}, std::size_t{64},
        std::size_t{65}, std::size_t{130}, std::size_t{1000}}) {
    const auto taxa = phylo::TaxonSet::make_numbered(n);
    const int reps = n >= 1000 ? kFrontEndTreeKinds : 3 * kFrontEndTreeKinds;
    for (int rep = 0; rep < reps; ++rep) {
      SCOPED_TRACE("n=" + std::to_string(n) + " rep=" + std::to_string(rep));
      const phylo::Tree t = front_end_tree(rep % kFrontEndTreeKinds, taxa, rng);
      const std::string text = phylo::write_newick(t);
      const bool full_binary = t.is_binary() && t.num_leaves() == n;
      const phylo::TreeVector row =
          full_binary ? phylo::tree_to_vector(t) : phylo::TreeVector{};
      for (const bool include_trivial : {false, true}) {
        for (const bool sorted : {false, true}) {
          SCOPED_TRACE("include_trivial=" + std::to_string(include_trivial) +
                       " sorted=" + std::to_string(sorted));
          for (const phylo::SplitValue value :
               {phylo::SplitValue::None, phylo::SplitValue::BranchLength,
                phylo::SplitValue::Support}) {
            tree_extractor.extract_into(t,
                                        {.include_trivial = include_trivial,
                                         .value = value,
                                         .sorted = sorted},
                                        got);
            EXPECT_TRUE(fingerprints_match(got))
                << "Tree path, value mode " << static_cast<int>(value);
            checked += got.size();
          }
          const phylo::BipartitionOptions opts{
              .include_trivial = include_trivial, .sorted = sorted};
          newick_extractor.extract_into(text, *taxa, opts, got);
          ++newick_records;
          EXPECT_TRUE(fingerprints_match(got)) << "Newick path: " << text;
          checked += got.size();
          newick_extractor.extract_into("((t0));", *taxa, opts, got);
          EXPECT_TRUE(got.empty() && fingerprints_match(got)) << "lone leaf";
          if (full_binary) {
            ++vector_rows;
            vector_extractor.extract_into(row, opts, got);
            EXPECT_TRUE(fingerprints_match(got)) << "vector path";
            checked += got.size();
          }
        }
      }
    }
  }
  // A Tree built through the API may name one taxon twice, which the fold's
  // XOR would cancel where its OR keeps it; such a tree's fingerprints
  // come from the words. (((t0,t1),(t2,(t0,t3))),t4,t5) over 70 taxa: the
  // first group holds t0 twice.
  const auto taxa = phylo::TaxonSet::make_numbered(70);
  phylo::Tree repeated(taxa);
  const phylo::NodeId root = repeated.add_root();
  const phylo::NodeId both = repeated.add_child(root);
  const phylo::NodeId left = repeated.add_child(both);
  const phylo::NodeId right = repeated.add_child(both);
  const phylo::NodeId inner = repeated.add_child(right);
  repeated.add_leaf(left, 0);
  repeated.add_leaf(left, 1);
  repeated.add_leaf(right, 2);
  repeated.add_leaf(inner, 0);
  repeated.add_leaf(inner, 3);
  repeated.add_leaf(root, 4);
  repeated.add_leaf(root, 5);
  for (const bool include_trivial : {false, true}) {
    for (const bool sorted : {false, true}) {
      tree_extractor.extract_into(
          repeated, {.include_trivial = include_trivial, .sorted = sorted},
          got);
      EXPECT_TRUE(fingerprints_match(got)) << "repeated taxon";
      checked += got.size();
    }
  }
  // Liveness: each route ran, and splits were compared.
  EXPECT_GT(newick_records, 0u);
  EXPECT_GT(vector_rows, 0u);
  EXPECT_GT(checked, 0u);
}

TEST(FuzzTest, MutatedNewickNeverCrashes) {
  const std::uint64_t seed = test::fuzz_seed(0xF422);
  SCOPED_TRACE("seed=" + test::hex_seed(seed));
  util::Rng rng(seed);
  const auto taxa = phylo::TaxonSet::make_numbered(12);
  const std::string base =
      phylo::write_newick(sim::yule_tree(taxa, rng));

  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (int rep = 0; rep < 2000; ++rep) {
    const std::string input = mutate(base, 1 + rng.below(6), rng);
    auto scratch = std::make_shared<phylo::TaxonSet>();
    try {
      const phylo::Tree t = phylo::parse_newick(input, scratch);
      t.validate();  // anything accepted must be structurally sound
      ++parsed;
    } catch (const Error&) {
      ++rejected;
    }
  }
  // Both outcomes must occur — all-rejected would mean the mutator is too
  // harsh to exercise the accept path, all-accepted that errors are eaten.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(FuzzTest, MutatedNexusNeverCrashes) {
  const std::uint64_t seed = test::fuzz_seed(0xF423);
  SCOPED_TRACE("seed=" + test::hex_seed(seed));
  util::Rng rng(seed);
  const std::string base =
      "#NEXUS\nBEGIN TAXA;\n TAXLABELS A B C D E;\nEND;\n"
      "BEGIN TREES;\n TRANSLATE 1 A, 2 B, 3 C, 4 D, 5 E;\n"
      " TREE t = [&U] ((1,2),(3,4),5);\nEND;\n";
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (int rep = 0; rep < 1000; ++rep) {
    const std::string input = mutate(base, 1 + rng.below(8), rng);
    std::istringstream in(input);
    try {
      const phylo::NexusData data = phylo::read_nexus(in);
      for (const auto& t : data.trees) {
        EXPECT_GT(t.num_leaves(), 0u);
      }
      ++parsed;
    } catch (const Error&) {
      ++rejected;
    }
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(FuzzTest, TruncatedNewickAlwaysRejectedOrValid) {
  const std::uint64_t seed = test::fuzz_seed(0xF424);
  SCOPED_TRACE("seed=" + test::hex_seed(seed));
  util::Rng rng(seed);
  const auto taxa = phylo::TaxonSet::make_numbered(20);
  const std::string base = phylo::write_newick(
      sim::yule_tree(taxa, rng, sim::GeneratorOptions{.branch_lengths = true}));
  for (std::size_t cut = 0; cut < base.size(); ++cut) {
    auto scratch = std::make_shared<phylo::TaxonSet>();
    try {
      const phylo::Tree t =
          phylo::parse_newick(base.substr(0, cut), scratch);
      t.validate();
    } catch (const Error&) {
      // expected for most prefixes
    }
  }
}

TEST(FuzzTest, GarbageBytesRejected) {
  const std::uint64_t seed = test::fuzz_seed(0xF425);
  SCOPED_TRACE("seed=" + test::hex_seed(seed));
  util::Rng rng(seed);
  for (int rep = 0; rep < 500; ++rep) {
    std::string garbage(1 + rng.below(64), '\0');
    for (auto& c : garbage) {
      c = static_cast<char>(32 + rng.below(95));
    }
    auto scratch = std::make_shared<phylo::TaxonSet>();
    try {
      const phylo::Tree t = phylo::parse_newick(garbage, scratch);
      t.validate();
    } catch (const Error&) {
    }
  }
}

TEST(FuzzTest, FlippedIndexBytesRejectedOrServed) {
  // Single-byte flips over valid one-table BFHMAP files, raw and sparse
  // keys, spread over every section: the header, the table record, the
  // ctrl bytes, the slots and the key arena. Every open must throw
  // ParseError or load. A file that loads must answer a query batch (its
  // answers may differ) or refuse it with a typed error, such as a taxon
  // count the flip changed: never crash or hang.
  const std::uint64_t seed = test::fuzz_seed(0xF429);
  SCOPED_TRACE("seed=" + test::hex_seed(seed));
  util::Rng rng(seed);
  const auto taxa = phylo::TaxonSet::make_numbered(20);
  const auto reference = test::random_collection(taxa, 24, 4, rng);
  const auto queries = test::random_collection(taxa, 6, 6, rng);
  struct Cleanup {
    std::string path;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::remove(path, ec);
    }
  } file{::testing::TempDir() + "bfhrf_fuzz_index_" +
         std::to_string(::getpid()) + ".bfi"};
  const auto write_file = [&](const std::vector<char>& bytes) {
    std::ofstream out(file.path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };

  std::size_t rejected = 0;
  std::size_t served = 0;
  for (const bool compressed : {false, true}) {
    core::Bfhrf engine(taxa->size(), {.compressed_keys = compressed});
    engine.build(reference);
    core::save_bfhrf_file(engine, file.path);
    std::ifstream in(file.path, std::ios::binary);
    const std::vector<char> good{std::istreambuf_iterator<char>(in),
                                 std::istreambuf_iterator<char>()};
    const core::MappedTableRecord r = core::MappedIndex(file.path).table();
    struct Section {
      const char* name;
      std::uint64_t begin;
      std::uint64_t end;
    };
    constexpr std::uint64_t kRecord = sizeof(core::MappedHeader);
    const Section sections[] = {
        {"header", 0, kRecord},
        {"record", kRecord, kRecord + sizeof(core::MappedTableRecord)},
        {"ctrl", r.ctrl_offset, r.ctrl_offset + r.slot_count},
        {"slots", r.slots_offset,
         r.slots_offset + r.slot_count * sizeof(core::FrequencyHash::Slot)},
        {"keys", r.keys_offset, r.keys_offset + r.key_bytes},
    };
    for (const Section& section : sections) {
      ASSERT_LT(section.begin, section.end) << section.name;
      ASSERT_LE(section.end, good.size()) << section.name;
      for (int rep = 0; rep < 150; ++rep) {
        std::vector<char> bad = good;
        const std::uint64_t at =
            section.begin + rng.below(section.end - section.begin);
        bad[at] = static_cast<char>(bad[at] ^ (1 + rng.below(255)));
        write_file(bad);
        SCOPED_TRACE(std::string(compressed ? "sparse " : "raw ") +
                     section.name + " byte " + std::to_string(at));
        std::optional<core::Bfhrf> loaded;
        try {
          loaded.emplace(core::load_bfhrf_file(file.path));
        } catch (const ParseError&) {
          ++rejected;
          continue;
        }
        try {
          const auto rf =
              loaded->query(std::span<const phylo::Tree>(queries));
          ASSERT_EQ(rf.size(), queries.size());
          ++served;
        } catch (const Error&) {
        }
      }
    }
  }
  // Both outcomes must occur: all-rejected would mean no flip reaches a
  // query, all-loaded that the reader checks nothing.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(served, 0u);
}

TEST(FuzzTest, EngineSurvivesAdversarialCollections) {
  // Collections mixing tiny trees, stars, caterpillars and multifurcations
  // over one namespace: every engine path must stay exact or throw typed.
  const auto taxa = phylo::TaxonSet::make_numbered(9);
  const std::uint64_t seed = test::fuzz_seed(0xF426);
  SCOPED_TRACE("seed=" + test::hex_seed(seed));
  util::Rng rng(seed);
  std::vector<phylo::Tree> zoo;
  zoo.push_back(sim::caterpillar_tree(taxa, rng));
  zoo.push_back(sim::multifurcating_tree(taxa, rng, 0.9));
  zoo.push_back(sim::multifurcating_tree(taxa, rng, 0.0));
  {
    phylo::Tree star(taxa);
    const auto root = star.add_root();
    for (phylo::TaxonId i = 0; i < 9; ++i) {
      star.add_leaf(root, i);
    }
    zoo.push_back(std::move(star));
  }
  const auto avg = core::bfhrf_average_rf(zoo, zoo, {.threads = 2});
  ASSERT_EQ(avg.size(), zoo.size());
  for (const double v : avg) {
    EXPECT_GE(v, 0.0);
  }
  // Compressed path agrees on the zoo too.
  const auto comp =
      core::bfhrf_average_rf(zoo, zoo, {.compressed_keys = true});
  for (std::size_t i = 0; i < avg.size(); ++i) {
    EXPECT_DOUBLE_EQ(comp[i], avg[i]);
  }
}

TEST(FuzzTest, FrequencyHashInvariantsUnderRandomOps) {
  // The group-probed table is insert-only (no tombstones), so a random mix
  // of single adds, weighted adds and batched adds must keep four
  // invariants at every step: load factor never exceeds 0.7,
  // every mirrored key looks up to its exact count, for_each visits each
  // unique key exactly once, and counts never decrease.
  const std::uint64_t seed = test::fuzz_seed(0xF425);
  SCOPED_TRACE("seed=" + test::hex_seed(seed));
  util::Rng rng(seed);
  const std::size_t n_bits = 80;  // two words: exercises the memcmp verify

  core::FrequencyHash hash(n_bits);
  std::map<std::string, std::uint64_t> mirror;
  std::uint64_t total = 0;

  const auto random_key = [&] {
    util::DynamicBitset b(n_bits);
    const std::size_t ones = 1 + rng.below(5);
    for (std::size_t j = 0; j < ones; ++j) {
      b.set(rng.below(n_bits));
    }
    return b;
  };

  for (int op = 0; op < 600; ++op) {
    switch (rng.below(3)) {
      case 0: {  // single add
        const auto k = random_key();
        hash.add(k.words());
        mirror[k.to_string()] += 1;
        total += 1;
        break;
      }
      case 1: {  // weighted add (weight a pure function of the key)
        const auto k = random_key();
        const auto count = static_cast<std::uint32_t>(1 + rng.below(4));
        hash.add(k.words(), count,
                          0.5 + static_cast<double>(k.count()));
        mirror[k.to_string()] += count;
        total += count;
        break;
      }
      default: {  // batched add
        const std::size_t batch = 1 + rng.below(64);
        std::vector<std::uint64_t> arena;
        for (std::size_t i = 0; i < batch; ++i) {
          const auto k = random_key();
          arena.insert(arena.end(), k.words().begin(), k.words().end());
          mirror[k.to_string()] += 1;
        }
        hash.add_many(arena.data(), batch, nullptr);
        total += batch;
        break;
      }
    }
    ASSERT_LE(hash.load_factor(), 0.7) << "op=" << op;
    ASSERT_EQ(hash.total_count(), total) << "op=" << op;
    ASSERT_EQ(hash.unique_count(), mirror.size()) << "op=" << op;
  }

  // Mirror-exact lookups and a one-visit-per-key iteration image.
  std::size_t visited = 0;
  hash.for_each([&](util::ConstWordSpan key, std::uint32_t count) {
    ++visited;
    const auto s = util::DynamicBitset(n_bits, key).to_string();
    const auto it = mirror.find(s);
    ASSERT_NE(it, mirror.end());
    EXPECT_EQ(count, it->second);
  });
  EXPECT_EQ(visited, hash.unique_count());
  for (const auto& [s, count] : mirror) {
    EXPECT_EQ(hash.frequency(util::DynamicBitset::from_string(s).words()),
              count);
  }
}

}  // namespace
}  // namespace bfhrf
