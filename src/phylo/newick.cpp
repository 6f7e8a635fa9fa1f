#include "phylo/newick.hpp"

#include <cctype>
#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <sstream>

#include "obs/metrics.hpp"
#include "util/string_util.hpp"

namespace bfhrf::phylo {
namespace {

// Streaming-reader throughput: records framed and their bytes.
const obs::Counter g_newick_trees = obs::counter("phylo.newick.trees");
const obs::Counter g_newick_bytes = obs::counter("phylo.newick.bytes");
// Records whose splits NewickSplitExtractor took straight from their text.
const obs::Counter g_split_records =
    obs::counter("phylo.newick.split_records");

/// NewickReader's read-ahead block.
constexpr std::size_t kBlockBytes = 64 * 1024;

/// Index of the first ';', '\'' or '[' in text[from, to), or `to`: outside
/// quotes and comments, the only bytes the framer must look at.
std::size_t next_special(const char* text, std::size_t from, std::size_t to) {
  const auto find = [&](char c, std::size_t limit) {
    const void* hit = std::memchr(text + from, c, limit - from);
    return hit == nullptr
               ? limit
               : static_cast<std::size_t>(static_cast<const char*>(hit) - text);
  };
  return find('[', find('\'', find(';', to)));
}

/// The "C" locale's std::isspace set, without the locale lookup.
constexpr bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' ||
         c == '\f';
}

/// Character-level cursor with comment and whitespace skipping.
class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  /// Current character after skipping whitespace/comments; '\0' at end.
  char peek() {
    skip();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  char take() {
    const char c = peek();
    if (pos_ < text_.size()) {
      ++pos_;
    }
    return c;
  }

  void expect(char c) {
    const char got = take();
    if (got != c) {
      fail(std::string("expected '") + c + "', got " +
           (got == '\0' ? std::string("end of input")
                        : "'" + std::string(1, got) + "'"));
    }
  }

  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

  [[noreturn]] void fail(const std::string& msg) const {
    throw ParseError("newick parse error at offset " + std::to_string(pos_) +
                     ": " + msg);
  }

  /// Parse a (possibly quoted) label. Returns empty for no label. The view
  /// points into the text, or for a quoted label into the cursor's own
  /// buffer, and is valid until the next label() call.
  std::string_view label() {
    skip();
    if (pos_ >= text_.size()) {
      return {};
    }
    if (text_[pos_] == '\'') {
      ++pos_;
      quoted_.clear();
      while (true) {
        if (pos_ >= text_.size()) {
          fail("unterminated quoted label");
        }
        const char c = text_[pos_++];
        if (c == '\'') {
          if (pos_ < text_.size() && text_[pos_] == '\'') {
            quoted_.push_back('\'');  // '' escapes a quote
            ++pos_;
          } else {
            return quoted_;
          }
        } else {
          quoted_.push_back(c);
        }
      }
    }
    const std::size_t begin = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '(' || c == ')' || c == ',' || c == ':' || c == ';' ||
          c == '[' || is_space(c)) {
        break;
      }
      ++pos_;
    }
    return text_.substr(begin, pos_ - begin);
  }

  /// Parse a branch length after ':'.
  double length() {
    skip();
    const char* begin = text_.data() + pos_;
    const char* end = text_.data() + text_.size();
    double v = 0;
    const auto [ptr, ec] = std::from_chars(begin, end, v);
    if (ec != std::errc{} || ptr == begin) {
      fail("bad branch length");
    }
    pos_ += static_cast<std::size_t>(ptr - begin);
    return v;
  }

 private:
  void skip() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (is_space(c)) {
        ++pos_;
      } else if (c == '[') {
        int depth = 0;
        while (pos_ < text_.size()) {
          if (text_[pos_] == '[') {
            ++depth;
          } else if (text_[pos_] == ']') {
            if (--depth == 0) {
              ++pos_;
              break;
            }
          }
          ++pos_;
        }
        if (depth != 0) {
          fail("unterminated [comment]");
        }
      } else {
        break;
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string quoted_;  ///< unescaped text of the last quoted label
};

/// The one Newick grammar: an iterative descent over `text` that reports
/// each event to `sink` —
///   open()                '(' opens a group; the first one is the root
///   leaf(label)           a leaf; root_leaf(label) for a one-leaf "A;"
///   length(v)             ":v" after the node just completed
///   close()               ')' closes the innermost open group
///   internal_label(label) a label after ')'
/// Malformed text throws ParseError from the cursor; a sink throws its own
/// errors from the event that finds them.
template <typename Sink>
void parse(std::string_view text, Sink& sink) {
  Cursor cur(text);
  if (cur.peek() == '\0') {
    cur.fail("empty input");
  }
  if (cur.peek() != '(') {
    // Degenerate single-leaf tree, e.g. "A;" or "A:1.0;".
    const std::string_view lbl = cur.label();
    if (lbl.empty()) {
      cur.fail("expected '(' or a label");
    }
    sink.root_leaf(lbl);
    if (cur.peek() == ':') {
      cur.take();
      sink.length(cur.length());
    }
    if (cur.peek() == ';') {
      cur.take();
    }
    if (cur.peek() != '\0') {
      cur.fail("trailing characters after tree");
    }
    return;
  }
  cur.take();
  sink.open();

  // `depth` counts the open '(' groups. While `subtree` is set we are at
  // the start of a subtree inside the innermost one; otherwise a node has
  // just completed, a leaf or a group closed by ')'.
  std::size_t depth = 1;
  bool subtree = true;
  while (true) {
    if (subtree) {
      if (cur.peek() == '(') {
        cur.take();
        sink.open();
        ++depth;
        continue;
      }
      // A leaf (or an empty label, which is an error for leaves).
      const std::string_view lbl = cur.label();
      if (lbl.empty()) {
        cur.fail("expected a leaf label");
      }
      sink.leaf(lbl);
      subtree = false;
    }

    // Optional ":length" for the node just completed.
    if (cur.peek() == ':') {
      cur.take();
      sink.length(cur.length());
    }

    const char c = cur.peek();
    if (c == ',') {
      cur.take();
      if (depth == 0) {
        cur.fail("',' outside parentheses");
      }
      subtree = true;
      continue;
    }
    if (c == ')') {
      cur.take();
      if (depth == 0) {
        cur.fail("unbalanced ')'");
      }
      --depth;
      sink.close();
      const std::string_view internal_label = cur.label();
      if (!internal_label.empty()) {
        sink.internal_label(internal_label);
      }
      continue;
    }
    if (c == ';' || c == '\0') {
      if (c == ';') {
        cur.take();
      }
      if (depth != 0) {
        cur.fail("missing ')': " + std::to_string(depth) +
                 " group(s) still open");
      }
      break;
    }
    cur.fail(std::string("unexpected character '") + c + "'");
  }
}

/// A record that names one taxon twice is not a tree over its leaves.
[[noreturn]] void repeated_taxon(std::string_view label) {
  throw ParseError("newick tree names taxon '" + std::string(label) +
                   "' twice");
}

/// parse_newick's sink: grows `tree` (which must be empty) and maps each
/// leaf label to a taxon id through TaxonSet::add_or_get. finish()
/// suppresses unary groups once the tree is whole.
class TreeSink {
 public:
  TreeSink(Tree& tree, TaxonSet& taxa) : tree_(tree), taxa_(taxa) {}

  void root_leaf(std::string_view label) {
    current_ = tree_.add_root();
    tree_.set_taxon(current_, taxa_.add_or_get(label));
  }

  void open() {
    open_.push_back(open_.empty() ? tree_.add_root()
                                  : tree_.add_child(open_.back()));
  }

  void leaf(std::string_view label) {
    const TaxonId id = taxa_.add_or_get(label);
    const auto word = static_cast<std::size_t>(id) / 64;
    const std::uint64_t bit = std::uint64_t{1}
                              << (static_cast<std::size_t>(id) % 64);
    if (word >= seen_.size()) {
      seen_.resize(word + 1, 0);
    }
    if ((seen_[word] & bit) != 0) {
      repeated_taxon(label);
    }
    seen_[word] |= bit;
    current_ = tree_.add_leaf(open_.back(), id);
  }

  void length(double v) { tree_.set_length(current_, v); }

  void close() {
    current_ = open_.back();
    open_.pop_back();
    const NodeId first = tree_.node(current_).first_child;
    unary_ |= tree_.node(first).next_sibling == kNoNode;
  }

  /// Numeric internal labels are support values (the common bootstrap /
  /// posterior convention); others are ignored.
  void internal_label(std::string_view label) {
    double support = 0;
    const char* begin = label.data();
    const char* end = begin + label.size();
    const auto [ptr, ec] = std::from_chars(begin, end, support);
    if (ec == std::errc{} && ptr == end) {
      tree_.set_support(current_, support);
    }
  }

  void finish() {
    if (unary_) {
      tree_.suppress_unary();
    }
  }

 private:
  Tree& tree_;
  TaxonSet& taxa_;
  std::vector<NodeId> open_;  ///< the open '(' groups, innermost last
  std::vector<std::uint64_t> seen_;  ///< taxa named so far, one bit each
  NodeId current_ = kNoNode;  ///< node whose length/label comes next
  bool unary_ = false;        ///< some group closed with one child
};

/// The split pass's sink: hands the grammar's events to the fold, looking
/// each leaf label up in the namespace without writing it. A one-leaf
/// record folds as a group around its leaf, as BipartitionExtractor folds
/// a one-leaf Tree; a unary group closes like any other, and the finish
/// sorts out the splits it repeats.
struct SplitSink {
  SplitFold& fold;
  const TaxonSet& taxa;

  void root_leaf(std::string_view label) {
    fold.open();
    leaf(label);
    fold.close();
  }

  void open() { fold.open(); }

  /// InvalidArgument for a label outside the namespace (TaxonSet::index_of
  /// names it), ParseError for a repeated taxon.
  void leaf(std::string_view label) {
    if (!fold.leaf(static_cast<std::size_t>(taxa.index_of(label)))) {
      repeated_taxon(label);
    }
  }

  void length(double /*v*/) {}

  void close() { fold.close(); }

  void internal_label(std::string_view /*label*/) {}
};

}  // namespace

Tree parse_newick(std::string_view text, const TaxonSetPtr& taxa) {
  if (!taxa) {
    throw InvalidArgument("parse_newick: null taxon set");
  }
  Tree tree(taxa);
  TreeSink sink(tree, *taxa);
  parse(text, sink);
  sink.finish();
  return tree;
}

void NewickSplitExtractor::extract_into(std::string_view text,
                                        const TaxonSet& taxa,
                                        const BipartitionOptions& opts,
                                        BipartitionSet& out) {
  if (opts.value != SplitValue::None) {
    throw InvalidArgument(
        "NewickSplitExtractor: per-split values need a parsed Tree "
        "(parse_newick + BipartitionExtractor)");
  }
  fold_.start(taxa.size(), opts.include_trivial);
  SplitSink sink{.fold = fold_, .taxa = taxa};
  parse(text, sink);
  fold_.finish(opts, out);
  g_split_records.inc();
}

namespace {

bool needs_quoting(const std::string& label) {
  if (label.empty()) {
    return true;
  }
  for (const char c : label) {
    if (c == '(' || c == ')' || c == ',' || c == ':' || c == ';' ||
        c == '[' || c == ']' || c == '\'' ||
        std::isspace(static_cast<unsigned char>(c)) != 0) {
      return true;
    }
  }
  return false;
}

void write_label(std::ostream& os, const std::string& label) {
  if (!needs_quoting(label)) {
    os << label;
    return;
  }
  os << '\'';
  for (const char c : label) {
    if (c == '\'') {
      os << "''";
    } else {
      os << c;
    }
  }
  os << '\'';
}

}  // namespace

std::string write_newick(const Tree& tree, const NewickWriteOptions& opts) {
  if (tree.empty()) {
    throw InvalidArgument("cannot serialize an empty tree");
  }
  std::ostringstream os;
  os.precision(opts.length_precision);
  const NodeId root = tree.root();
  // A node after its parent's first child follows a ','.
  const auto separate = [&](NodeId id) {
    if (id != root && tree.node(tree.node(id).parent).first_child != id) {
      os << ',';
    }
  };
  // A node's support (internal nodes only) and length.
  const auto annotate = [&](NodeId id, bool internal) {
    if (internal && opts.write_support && tree.node(id).has_support) {
      os << tree.node(id).support;
    }
    if (opts.write_lengths && tree.node(id).has_length) {
      os << ':' << tree.node(id).length;
    }
  };
  tree.walk(
      [&](NodeId id) {
        separate(id);
        os << '(';
      },
      [&](NodeId id) {
        separate(id);
        write_label(os, tree.taxa()->label_of(tree.node(id).taxon));
        annotate(id, false);
      },
      [&](NodeId id) {
        os << ')';
        annotate(id, true);
      });
  os << ';';
  return std::move(os).str();
}

NewickReader::NewickReader(std::istream& in, TaxonSetPtr taxa)
    : in_(in), taxa_(std::move(taxa)) {
  if (!taxa_) {
    throw InvalidArgument("NewickReader: null taxon set");
  }
}

bool NewickReader::refill() {
  block_.resize(kBlockBytes);
  in_.read(block_.data(), static_cast<std::streamsize>(block_.size()));
  pos_ = 0;
  end_ = static_cast<std::size_t>(in_.gcount());
  return end_ > 0;
}

bool NewickReader::next_record(std::string& out) {
  out.clear();
  // Framing state survives block boundaries: a quoted label or a [comment]
  // may straddle two blocks.
  bool in_quote = false;  // '' escapes toggle twice, which is harmless
  int comment_depth = 0;
  while (pos_ < end_ || refill()) {
    const char* const block = block_.data();
    std::size_t i = pos_;
    while (i < end_) {
      if (!in_quote && comment_depth == 0) {
        i = next_special(block, i, end_);
        if (i == end_) {
          break;
        }
      }
      const char c = block[i++];
      if (in_quote) {
        in_quote = c != '\'';
      } else if (comment_depth > 0) {
        comment_depth += c == '[' ? 1 : (c == ']' ? -1 : 0);
      } else if (c == '\'') {
        in_quote = true;
      } else if (c == '[') {
        comment_depth = 1;
      } else if (c == ';') {
        out.append(block + pos_, i - pos_);
        pos_ = i;
        ++count_;
        g_newick_trees.inc();
        g_newick_bytes.inc(out.size());
        return true;
      }
    }
    out.append(block + pos_, end_ - pos_);
    pos_ = end_;
  }
  if (util::trim(out).empty()) {
    out.clear();
    return false;
  }
  // Trailing record without ';' — accept it for robustness.
  ++count_;
  g_newick_trees.inc();
  g_newick_bytes.inc(out.size());
  return true;
}

std::optional<Tree> NewickReader::next() {
  if (!next_record(record_)) {
    return std::nullopt;
  }
  return parse_newick(record_, taxa_);
}

std::vector<Tree> read_newick_file(const std::string& path,
                                   const TaxonSetPtr& taxa) {
  std::ifstream in(path);
  if (!in) {
    throw ParseError("cannot open '" + path + "'");
  }
  std::vector<Tree> trees;
  NewickReader reader(in, taxa);
  while (auto t = reader.next()) {
    trees.push_back(std::move(*t));
  }
  if (trees.empty()) {
    throw ParseError("no trees in '" + path + "'");
  }
  return trees;
}

void write_newick_file(const std::string& path, std::span<const Tree> trees,
                       const NewickWriteOptions& opts) {
  std::ofstream out(path);
  if (!out) {
    throw ParseError("cannot open '" + path + "' for writing");
  }
  for (const Tree& t : trees) {
    out << write_newick(t, opts) << '\n';
  }
}

}  // namespace bfhrf::phylo
