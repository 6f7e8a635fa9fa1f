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

/// The one parser behind parse_newick and parse_newick_into: builds the
/// tree into `tree` (which must be empty) and maps each leaf label to a
/// taxon id through `resolve`.
template <typename Resolve>
void parse_into(std::string_view text, const TaxonSet& taxa,
                const NewickParseOptions& opts, Tree& tree,
                Resolve&& resolve) {
  Cursor cur(text);
  if (cur.peek() == '\0') {
    cur.fail("empty input");
  }

  // Iterative descent: the stack holds the open '(' ancestors.
  std::vector<NodeId> stack;
  const NodeId root = tree.add_root();
  NodeId current = root;  // node whose label/length we are about to read

  if (cur.peek() == '(') {
    cur.take();
    stack.push_back(root);
    current = kNoNode;
  } else {
    // Degenerate single-leaf tree, e.g. "A;" or "A:1.0;".
    const std::string_view lbl = cur.label();
    if (lbl.empty()) {
      cur.fail("expected '(' or a label");
    }
    tree.set_taxon(root, resolve(lbl));
    if (cur.peek() == ':') {
      cur.take();
      tree.set_length(root, cur.length());
    }
    if (cur.peek() == ';') {
      cur.take();
    }
    if (cur.peek() != '\0') {
      cur.fail("trailing characters after tree");
    }
    return;
  }

  // After this point: whenever current == kNoNode we are at the start of a
  // subtree inside stack.back(). Every internal node is closed by a ')',
  // which records whether it has a single child.
  bool unary = false;
  while (true) {
    if (current == kNoNode) {
      if (cur.peek() == '(') {
        cur.take();
        const NodeId nd = tree.add_child(stack.back());
        stack.push_back(nd);
        continue;
      }
      // A leaf (or an empty label, which is an error for leaves).
      const std::string_view lbl = cur.label();
      if (lbl.empty()) {
        cur.fail("expected a leaf label");
      }
      current = tree.add_leaf(stack.back(), resolve(lbl));
    }

    // Optional ":length" for the node just completed.
    if (cur.peek() == ':') {
      cur.take();
      tree.set_length(current, cur.length());
    }

    const char c = cur.peek();
    if (c == ',') {
      cur.take();
      if (stack.empty()) {
        cur.fail("',' outside parentheses");
      }
      current = kNoNode;
      continue;
    }
    if (c == ')') {
      cur.take();
      if (stack.empty()) {
        cur.fail("unbalanced ')'");
      }
      current = stack.back();
      stack.pop_back();
      const NodeId first = tree.node(current).first_child;
      unary |= tree.node(first).next_sibling == kNoNode;
      // Optional internal label; numeric ones are support values (the
      // common bootstrap/posterior convention), others are ignored.
      const std::string_view internal_label = cur.label();
      if (!internal_label.empty()) {
        double support = 0;
        const char* begin = internal_label.data();
        const char* end = begin + internal_label.size();
        const auto [ptr, ec] = std::from_chars(begin, end, support);
        if (ec == std::errc{} && ptr == end) {
          tree.set_support(current, support);
        }
      }
      continue;
    }
    if (c == ';' || c == '\0') {
      if (c == ';') {
        cur.take();
      }
      if (!stack.empty()) {
        cur.fail("missing ')': " + std::to_string(stack.size()) +
                 " group(s) still open");
      }
      break;
    }
    cur.fail(std::string("unexpected character '") + c + "'");
  }

  if (tree.num_leaves() == 0) {
    throw ParseError("newick tree has no leaves");
  }
  if (unary) {
    tree.suppress_unary();
  }
  if (opts.require_full_taxon_set && tree.num_leaves() != taxa.size()) {
    throw ParseError("tree has " + std::to_string(tree.num_leaves()) +
                     " leaves but the taxon set has " +
                     std::to_string(taxa.size()));
  }
}

}  // namespace

Tree parse_newick(std::string_view text, const TaxonSetPtr& taxa,
                  const NewickParseOptions& opts) {
  if (!taxa) {
    throw InvalidArgument("parse_newick: null taxon set");
  }
  Tree tree(taxa);
  parse_into(text, *taxa, opts, tree,
             [&](std::string_view label) { return taxa->add_or_get(label); });
  return tree;
}

void parse_newick_into(std::string_view text, const TaxonSetPtr& taxa,
                       Tree& out, const NewickParseOptions& opts) {
  if (!taxa) {
    throw InvalidArgument("parse_newick_into: null taxon set");
  }
  if (out.taxa() != taxa) {
    out.set_taxa(taxa);
  }
  out.clear();
  parse_into(text, *taxa, opts, out,
             [&](std::string_view label) { return taxa->index_of(label); });
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

  // Iterative serialization: frames carry the remaining children.
  struct Frame {
    NodeId id;
    std::vector<NodeId> kids;
    std::size_t next = 0;
  };
  std::vector<Frame> stack;

  const auto open = [&](NodeId id) {
    if (tree.is_leaf(id)) {
      write_label(os, tree.taxa()->label_of(tree.node(id).taxon));
      return false;
    }
    os << '(';
    stack.push_back({id, tree.children(id), 0});
    return true;
  };

  const auto close = [&](NodeId id, bool internal) {
    if (internal && opts.write_support && tree.node(id).has_support) {
      os << tree.node(id).support;
    }
    if (opts.write_lengths && tree.node(id).has_length) {
      os << ':' << tree.node(id).length;
    }
  };

  if (!open(tree.root())) {
    close(tree.root(), false);
    os << ';';
    return std::move(os).str();
  }
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next < f.kids.size()) {
      if (f.next > 0) {
        os << ',';
      }
      const NodeId child = f.kids[f.next++];
      if (!open(child)) {
        close(child, false);
      }
    } else {
      os << ')';
      close(f.id, true);
      stack.pop_back();
    }
  }
  os << ';';
  return std::move(os).str();
}

NewickReader::NewickReader(std::istream& in, TaxonSetPtr taxa,
                           NewickParseOptions opts)
    : in_(in), taxa_(std::move(taxa)), opts_(opts) {
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
  return parse_newick(record_, taxa_, opts_);
}

std::vector<Tree> read_newick_file(const std::string& path,
                                   const TaxonSetPtr& taxa,
                                   const NewickParseOptions& opts) {
  std::ifstream in(path);
  if (!in) {
    throw ParseError("cannot open '" + path + "'");
  }
  std::vector<Tree> trees;
  NewickReader reader(in, taxa, opts);
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
