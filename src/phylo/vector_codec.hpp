// Vector tree codec — phylo2vec-style integer encodings as a first-class
// interchange format alongside Newick/NEXUS (ROADMAP "vector tree
// encodings"; phylo2vec arXiv 2506.19490, Chauve–Colijn–Zhang arXiv
// 2405.07110).
//
// Encoding. A rooted binary tree on leaves labeled 0..n-1 is a vector v of
// n-1 integers with v[j] in [0, 2j] (so v[0] == 0 always). The tree is
// grown by attaching leaves in label order; at step i (adding leaf i,
// code c = v[i-1]):
//
//   c <= i-1 : subdivide the pendant branch of leaf c and hang leaf i
//              off the new internal node;
//   c >  i-1 : subdivide the branch ABOVE the internal node created at
//              step t = c - i + 1 (attaching above the root grows a new
//              root).
//
// Each step creates exactly one internal node, so there are prod(2j+1)
// = (2n-3)!! vectors — the number of rooted binary trees on n labeled
// leaves — and the map is a bijection. Decoding is O(n) on a flat parent
// array. Encoding is O(n) too, via the reverse-deletion identity: in the
// FINAL tree, the internal node created at step i is the one whose two
// child-subtree minimum labels have maximum equal to i (subtree minima
// are invariant under the later interpositions), so one postorder pass
// recovers every creation step and leaves n-1..1 can be spliced off in
// reverse order, reading each code from the removed leaf's sibling.
//
// Scope: vectors encode TOPOLOGY over the full taxon set only — branch
// lengths and supports are dropped, multifurcating trees and trees on a
// strict taxon subset are rejected (InvalidArgument). The repo's unrooted
// convention (degree-3 root) is handled by an implicit deterministic
// rooting; RF and bipartitions are rooting-invariant, so conversions are
// distance-free (qc invariant #9 checks the full pairwise matrix
// bit-for-bit).
//
// Three surfaces:
//  * Tree <-> vector conversion through the existing Tree/TaxonSet types.
//  * Text ("0,2,4") and binary (.p2v, little-endian, counted header)
//    corpus I/O. The counted header gives an EXACT size_hint.
//  * VectorBipartitionExtractor: canonical BipartitionSets straight from
//    the vector form, no Tree materialized — a dense integer array beats
//    pointer-chasing the node arena for the extraction stage the PR 2
//    pipeline made hot (bench/ablation_codec.cpp, A11).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "phylo/bipartition.hpp"
#include "phylo/taxon_set.hpp"
#include "phylo/tree.hpp"
#include "util/bitset.hpp"

namespace bfhrf::phylo {

/// A phylo2vec-style topology vector: length n-1 for n taxa, v[j] in
/// [0, 2j]. The empty vector is the single-leaf tree.
using TreeVector = std::vector<std::uint32_t>;

/// Throw InvalidArgument unless every code is in range (v[j] <= 2j).
void validate_vector(std::span<const std::uint32_t> v);

/// Decode a vector into a rooted binary tree over `taxa` (which must have
/// exactly v.size()+1 taxa; leaf labels are the taxon bit indices). The
/// result has a degree-2 root, so tree_to_vector(vector_to_tree(v)) == v
/// exactly.
[[nodiscard]] Tree vector_to_tree(std::span<const std::uint32_t> v,
                                  const TaxonSetPtr& taxa);

/// Encode a binary tree covering its full taxon set. Accepts both rooted
/// (degree-2 root) and the repo's unrooted convention (degree-3 root,
/// rooted deterministically by grouping the root's trailing two children).
/// Throws InvalidArgument for multifurcating/unary trees or partial taxon
/// coverage.
[[nodiscard]] TreeVector tree_to_vector(const Tree& tree);

// --- text form --------------------------------------------------------------

/// "0,2,4" — comma-separated codes, no padding.
[[nodiscard]] std::string format_vector(std::span<const std::uint32_t> v);

/// Parse the text form (surrounding whitespace tolerated). Throws
/// ParseError on malformed input or out-of-range codes.
[[nodiscard]] TreeVector parse_vector(std::string_view text);

// --- binary corpus (.p2v) ---------------------------------------------------
//
// Little-endian layout, counted header (all integers LE):
//   bytes 0..3   magic "P2V1"
//   u32          n_taxa            (>= 1)
//   u64          n_trees
//   u32          flags             (bit 0: labels block present)
//   [labels]     n_taxa x (u32 len + bytes), when flag bit 0 is set
//   records      n_trees x (n_taxa - 1) u32 codes, fixed width
//
// Fixed-width records keep the corpus seekable and make truncation and
// trailing garbage detectable exactly (the reader validates full
// consumption like the serve protocol decoders).

struct P2vHeader {
  std::uint32_t n_taxa = 0;
  std::uint64_t n_trees = 0;
  /// Taxon labels in bit-index order; empty when the corpus carries none
  /// (readers then use TaxonSet::make_numbered).
  std::vector<std::string> labels;
};

/// Streaming .p2v writer. The tree count is back-patched into the header
/// by finish(), so the stream must be seekable (files are). finish() is
/// called by the destructor if the caller did not; call it explicitly to
/// surface errors.
class P2vWriter {
 public:
  P2vWriter(std::ostream& out, std::uint32_t n_taxa,
            std::span<const std::string> labels = {});
  P2vWriter(const P2vWriter&) = delete;
  P2vWriter& operator=(const P2vWriter&) = delete;
  ~P2vWriter();

  /// Append one record; validates width and code ranges.
  void write(std::span<const std::uint32_t> v);

  /// Patch the counted header. Idempotent.
  void finish();

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

 private:
  std::ostream& out_;
  std::uint32_t n_taxa_;
  std::uint64_t count_ = 0;
  std::streampos count_pos_;
  bool finished_ = false;
};

/// Streaming .p2v reader. The constructor parses and validates the header
/// (magic, taxon count, flags, labels); next() yields exactly
/// header().n_trees records, validating every code, then requires EOF —
/// a truncated record or trailing bytes is a ParseError, never silence.
class P2vReader {
 public:
  explicit P2vReader(std::istream& in);

  [[nodiscard]] const P2vHeader& header() const noexcept { return header_; }

  /// Next record into `out` (resized to n_taxa-1); false after the
  /// declared count (at which point the tail has been checked).
  bool next(TreeVector& out);

 private:
  std::istream& in_;
  P2vHeader header_;
  std::uint64_t read_ = 0;
};

/// Parse just the header of a .p2v file (for size_hint probes).
[[nodiscard]] P2vHeader read_p2v_header(const std::string& path);

// Both corpus writers replace `path` atomically (util::AtomicFile): a
// write that throws leaves the old file as it was and no temp file.

/// Write a whole corpus of raw vectors.
void write_p2v_file(const std::string& path, std::uint32_t n_taxa,
                    std::span<const TreeVector> vectors,
                    std::span<const std::string> labels = {});

/// Encode and write a tree collection (labels come from the shared
/// TaxonSet). All trees must be binary over the full taxon set.
void write_p2v_file(const std::string& path, std::span<const Tree> trees);

// --- direct extraction ------------------------------------------------------

/// Canonical bipartition extraction straight from the vector form: the
/// vector decodes to a flat parent array (no Tree, no labels, no Newick
/// characters), subtree masks and their linear fingerprints accumulate
/// bottom-up over it, and the per-node mask and fingerprint columns go to
/// the finish all front ends share (finish_splits). Output is identical to
/// BipartitionExtractor over vector_to_tree(v) — the kept key sets match
/// bit-for-bit, and sorted arenas match in order too.
///
/// The universe width is v.size()+1 (vector trees always cover their full
/// taxon set, so the canonical polarity pivot is taxon 0). Vectors carry
/// no per-edge values, so opts.value must be SplitValue::None.
///
/// All buffers are reused across calls — per-vector extraction is
/// allocation-free once warm (the PR 2 per-worker scratch discipline).
/// Not thread-safe: one extractor per worker.
class VectorBipartitionExtractor {
 public:
  /// Extract into the internal set and return a reference to it. The
  /// reference is invalidated by the next extract()/extract_into().
  const BipartitionSet& extract(std::span<const std::uint32_t> v,
                                const BipartitionOptions& opts = {});

  /// Extract into `out` (cleared first), reusing `out`'s capacity as well
  /// as the extractor's scratch.
  void extract_into(std::span<const std::uint32_t> v,
                    const BipartitionOptions& opts, BipartitionSet& out);

 private:
  BipartitionSet set_;
  std::vector<std::int32_t> parent_;    ///< decoded parent array
  std::vector<std::int32_t> pending_;   ///< unfolded-children counts
  std::vector<std::int32_t> ready_;     ///< bottom-up work queue
  std::vector<std::uint64_t> masks_;    ///< per-node leaf masks
  std::vector<std::uint64_t> linear_;   ///< their linear fingerprints
  util::DynamicBitset leaf_mask_;       ///< full universe (all n bits)
  BipartitionSet::FinalizeScratch finalize_scratch_;
};

}  // namespace bfhrf::phylo
