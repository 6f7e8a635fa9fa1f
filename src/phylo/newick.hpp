// Newick parsing and writing.
//
// Grammar supported (a superset of what the paper's datasets need):
//   tree       := subtree [label] [":" length] ";"
//   subtree    := "(" subtree ("," subtree)* ")" [label] [":" length]
//               | label [":" length]
//   label      := unquoted | "'" quoted-with-''-escapes "'"
//   comments   := "[" ... "]"   (ignored, nestable)
// Multifurcations, internal labels (numeric ones are supports, others are
// ignored), missing branch lengths (the Insect dataset is unweighted), and
// arbitrary whitespace are handled.
//
// One iterative descent (explicit stack, so pathological caterpillar trees
// cannot overflow the call stack) implements the grammar for both
// consumers: parse_newick builds a Tree from it, and NewickSplitExtractor
// turns the same events straight into canonical splits. Malformed text
// therefore fails with the same ParseError, at the same offset, whichever
// of them reads it.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "phylo/bipartition.hpp"
#include "phylo/tree.hpp"

namespace bfhrf::phylo {

/// Parse a single Newick string into a tree over `taxa` (new labels are
/// added unless the set is frozen). Throws ParseError on malformed input
/// and on a record that names one taxon twice.
[[nodiscard]] Tree parse_newick(std::string_view text, const TaxonSetPtr& taxa);

/// Canonical splits straight from one record's Newick text, with no Tree:
/// the only route a streamed or served Newick record takes. The grammar's
/// '(', leaf and ')' events drive phylo::SplitFold, which keeps a
/// ⌈n/64⌉-word leaf mask per open group and lists the closed groups in
/// postorder; once the root closes, finish_splits canonicalizes them
/// against the record's leaf mask. BipartitionExtractor feeds the same
/// fold from a Tree, so the splits and their fingerprints are what
/// parse_newick plus BipartitionExtractor give for `opts`, byte for byte
/// and in the same order. The one exception is a record with a unary
/// group: the parse suppresses it, while here it closes like any other
/// group and the finish sorts and dedups the split it repeats, so such a
/// record's arena comes out sorted even when opts.sorted is false.
///
/// Not thread-safe: one extractor per worker. `taxa` is only read
/// (TaxonSet::index_of), so extractors on several threads may share it.
class NewickSplitExtractor {
 public:
  /// Extract `text`'s splits over `taxa` into `out` (cleared first).
  /// Throws, with `out` unspecified and `taxa` unwritten: ParseError on
  /// malformed text, as parse_newick does, and on a record that names one
  /// taxon twice; InvalidArgument naming a label outside `taxa`, and for
  /// opts.value other than None (only a Tree carries lengths and
  /// supports).
  void extract_into(std::string_view text, const TaxonSet& taxa,
                    const BipartitionOptions& opts, BipartitionSet& out);

 private:
  SplitFold fold_;
};

struct NewickWriteOptions {
  bool write_lengths = true;   ///< emit ":len" where a length was present
  bool write_support = false;  ///< emit internal support values as labels
  int length_precision = 6;
};

/// Serialize a tree to Newick (with terminating ';').
[[nodiscard]] std::string write_newick(const Tree& tree,
                                       const NewickWriteOptions& opts = {});

/// Streaming reader: yields one ';'-terminated record (or the tree parsed
/// from it) at a time from a stream. This is how the algorithms
/// "dynamically load" collections — only one tree is resident at a time.
///
/// The reader reads its stream ahead, one 64 KiB block at a time, so the
/// stream's position is past the last record returned; the stream belongs
/// to the reader while it is in use.
class NewickReader {
 public:
  NewickReader(std::istream& in, TaxonSetPtr taxa);

  /// Frame the next record into `out`: its text up to and including the
  /// ';' that ends it, with ';' inside quoted labels and nested [comments]
  /// skipped. A trailing record without ';' counts if it has any
  /// non-whitespace. False (and `out` empty) at end of stream.
  bool next_record(std::string& out);

  /// Next tree (next_record + parse_newick over the reader's taxon set),
  /// or std::nullopt at end of stream.
  [[nodiscard]] std::optional<Tree> next();

  /// Number of records framed so far.
  [[nodiscard]] std::size_t count() const noexcept { return count_; }

  [[nodiscard]] const TaxonSetPtr& taxa() const noexcept { return taxa_; }

 private:
  /// Read the next block; false at end of stream.
  bool refill();

  std::istream& in_;
  TaxonSetPtr taxa_;
  std::string block_;        ///< read-ahead buffer
  std::size_t pos_ = 0;      ///< next unframed byte of block_
  std::size_t end_ = 0;      ///< bytes of block_ holding stream data
  std::string record_;       ///< next()'s framing buffer
  std::size_t count_ = 0;
};

/// Read every tree from a Newick file (one or more trees, ';'-separated).
[[nodiscard]] std::vector<Tree> read_newick_file(const std::string& path,
                                                 const TaxonSetPtr& taxa);

/// Write trees to a file, one per line.
void write_newick_file(const std::string& path, std::span<const Tree> trees,
                       const NewickWriteOptions& opts = {});

}  // namespace bfhrf::phylo
