// TreeSource: a resettable forward stream of trees.
//
// The paper's memory argument (Table I) hinges on *dynamically* loading
// tree collections — only one tree resident at a time. TreeSource is that
// abstraction: engines that accept a TreeSource never materialize the
// collection; engines that accept std::span<const Tree> trade memory for
// zero re-parsing. Both paths are benchmarked.
#pragma once

#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "phylo/newick.hpp"
#include "phylo/tree.hpp"
#include "phylo/vector_codec.hpp"

namespace bfhrf::core {

class TreeSource {
 public:
  virtual ~TreeSource() = default;

  /// Move the next tree into `out`; false at end of stream.
  virtual bool next(phylo::Tree& out) = 0;

  /// Rewind to the first tree (re-opens files; re-iterates spans).
  virtual void reset() = 0;

  /// Total tree count if cheaply known (spans: yes; files: no).
  [[nodiscard]] virtual std::optional<std::size_t> size_hint() const {
    return std::nullopt;
  }
};

/// Adapts an in-memory collection. next() copies (callers that can work
/// over the span directly should; this adapter exists so the streaming
/// engines can be tested against in-memory data).
class SpanTreeSource final : public TreeSource {
 public:
  explicit SpanTreeSource(std::span<const phylo::Tree> trees)
      : trees_(trees) {}

  bool next(phylo::Tree& out) override {
    if (pos_ >= trees_.size()) {
      return false;
    }
    out = trees_[pos_++];
    return true;
  }

  void reset() override { pos_ = 0; }

  [[nodiscard]] std::optional<std::size_t> size_hint() const override {
    return trees_.size();
  }

 private:
  std::span<const phylo::Tree> trees_;
  std::size_t pos_ = 0;
};

/// Streams trees from a Newick file; holds one parsed tree at a time.
///
/// next() frames and parses on the calling thread and grows a non-frozen
/// namespace, like NewickReader::next. The engine (core/bfhrf) splits the
/// two steps instead: its producer only frames records (next_record), and
/// its workers extract each record's splits straight from the text
/// (phylo::NewickSplitExtractor) against the namespace as it stands, which
/// they never write. A record that pass hands back is parsed into a Tree
/// (parse_record) and extracted from that.
class FileTreeSource final : public TreeSource {
 public:
  FileTreeSource(std::string path, phylo::TaxonSetPtr taxa);

  bool next(phylo::Tree& out) override;
  void reset() override;

  /// Estimated tree count from a one-pass semicolon scan of the file,
  /// computed lazily on first call and cached. Every Newick tree ends
  /// with ';', so this is exact for well-formed files unless ';' also
  /// appears inside quoted labels or [comments] — acceptable for the
  /// reserve/pre-size consumers a hint feeds.
  [[nodiscard]] std::optional<std::size_t> size_hint() const override;

  /// Frame the next record's text into `out` without parsing it
  /// (NewickReader::next_record); false at end of stream.
  bool next_record(std::string& out);

  /// Parse one framed record into `out` over the source's namespace
  /// without writing it (phylo::parse_newick_into): an unknown label
  /// throws InvalidArgument. Safe to call from several threads at once.
  void parse_record(std::string_view record, phylo::Tree& out) const;

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

/// Adapts an in-memory vector collection.
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
/// size_hint() EXACT — no scan, unlike text formats — so downstream
/// reserves and pre-sizing never degrade on file input.
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

/// Adapts a VectorSource into a TreeSource by decoding each row, so every
/// Tree-consuming engine can read vector corpora unchanged. The source's
/// (exact, for .p2v) size_hint passes through. Non-owning: the underlying
/// source must outlive the adapter.
class VectorTreeSource final : public TreeSource {
 public:
  /// `taxa` must have exactly source.n_taxa() taxa.
  VectorTreeSource(VectorSource& source, phylo::TaxonSetPtr taxa);

  bool next(phylo::Tree& out) override;
  void reset() override { source_.reset(); }

  [[nodiscard]] std::optional<std::size_t> size_hint() const override {
    return source_.size_hint();
  }

 private:
  VectorSource& source_;
  phylo::TaxonSetPtr taxa_;
  phylo::TreeVector row_;
};

}  // namespace bfhrf::core
