// Streamed tree input: the engine's two file-shaped sources.
//
// The paper's memory argument (Table I) hinges on *dynamically* loading
// the tree collections, one tree resident at a time. Two inputs stream:
//
//  * FileTreeSource: a Newick file. The engine (core/bfhrf) reads it as
//    record text, framed on one thread and extracted on the workers.
//  * VectorSource: phylo2vec rows (a .p2v corpus, P2vFileSource, or the
//    in-memory SpanVectorSource standing in for one). The engine extracts
//    splits straight from each row; no Tree is built.
//
// Engines that take std::span<const Tree> trade memory for zero re-parsing
// instead. Both forms are benchmarked.
#pragma once

#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "phylo/newick.hpp"
#include "phylo/tree.hpp"
#include "phylo/vector_codec.hpp"

namespace bfhrf::core {

/// Streams trees from a Newick file; holds one parsed tree at a time.
///
/// next() frames and parses on the calling thread and grows a non-frozen
/// namespace, like NewickReader::next. The engine (core/bfhrf) parses no
/// Tree: its producer only frames records (next_record), and its workers
/// extract each record's splits straight from the text
/// (phylo::NewickSplitExtractor) against the namespace as it stands, which
/// they never write.
class FileTreeSource {
 public:
  FileTreeSource(std::string path, phylo::TaxonSetPtr taxa);

  /// Move the next tree into `out`; false at end of stream.
  bool next(phylo::Tree& out);

  /// Rewind to the first tree (re-opens the file).
  void reset();

  /// Estimated tree count from a one-pass semicolon scan of the file,
  /// computed lazily on first call and cached. Every Newick tree ends
  /// with ';', so this is exact for well-formed files unless ';' also
  /// appears inside quoted labels or [comments]. The engine never asks:
  /// the scan reads the whole file once more before the stream does.
  [[nodiscard]] std::optional<std::size_t> size_hint() const;

  /// Frame the next record's text into `out` without parsing it
  /// (NewickReader::next_record); false at end of stream.
  bool next_record(std::string& out);

  [[nodiscard]] const phylo::TaxonSetPtr& taxa() const noexcept {
    return taxa_;
  }

 private:
  void open();

  std::string path_;
  phylo::TaxonSetPtr taxa_;
  std::ifstream in_;
  std::unique_ptr<phylo::NewickReader> reader_;
  mutable std::optional<std::size_t> cached_hint_;
};

/// A resettable forward stream of phylo2vec rows — the text-free ingest
/// path. Every row is over one shared universe of n_taxa() taxa (so
/// rows carry n_taxa()-1 codes).
class VectorSource {
 public:
  virtual ~VectorSource() = default;

  /// Move the next row into `out`; false at end of stream.
  virtual bool next(phylo::TreeVector& out) = 0;

  /// Rewind to the first row.
  virtual void reset() = 0;

  /// Universe width shared by all rows.
  [[nodiscard]] virtual std::size_t n_taxa() const = 0;

  /// Total row count if cheaply known.
  [[nodiscard]] virtual std::optional<std::size_t> size_hint() const {
    return std::nullopt;
  }
};

/// Adapts an in-memory vector collection. The engine treats every
/// VectorSource alike, so this is a faithful stand-in for P2vFileSource.
class SpanVectorSource final : public VectorSource {
 public:
  SpanVectorSource(std::span<const phylo::TreeVector> vectors,
                   std::size_t n_taxa)
      : vectors_(vectors), n_taxa_(n_taxa) {}

  bool next(phylo::TreeVector& out) override {
    if (pos_ >= vectors_.size()) {
      return false;
    }
    out = vectors_[pos_++];
    return true;
  }

  void reset() override { pos_ = 0; }

  [[nodiscard]] std::size_t n_taxa() const override { return n_taxa_; }

  [[nodiscard]] std::optional<std::size_t> size_hint() const override {
    return vectors_.size();
  }

 private:
  std::span<const phylo::TreeVector> vectors_;
  std::size_t n_taxa_;
  std::size_t pos_ = 0;
};

/// Streams records from a .p2v corpus. The counted header makes
/// size_hint() EXACT, with no scan, unlike text formats.
class P2vFileSource final : public VectorSource {
 public:
  explicit P2vFileSource(std::string path);

  bool next(phylo::TreeVector& out) override;
  void reset() override;

  [[nodiscard]] std::size_t n_taxa() const override;
  [[nodiscard]] std::optional<std::size_t> size_hint() const override;

  /// Corpus header (taxon labels, if the file carries them).
  [[nodiscard]] const phylo::P2vHeader& header() const;

 private:
  void open();

  std::string path_;
  std::ifstream in_;
  std::unique_ptr<phylo::P2vReader> reader_;
};

}  // namespace bfhrf::core
