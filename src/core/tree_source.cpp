#include "core/tree_source.hpp"

#include "util/error.hpp"

namespace bfhrf::core {

FileTreeSource::FileTreeSource(std::string path, phylo::TaxonSetPtr taxa)
    : path_(std::move(path)), taxa_(std::move(taxa)) {
  open();
}

void FileTreeSource::open() {
  in_.close();
  in_.clear();
  in_.open(path_);
  if (!in_) {
    throw ParseError("cannot open '" + path_ + "'");
  }
  reader_ = std::make_unique<phylo::NewickReader>(in_, taxa_);
}

bool FileTreeSource::next(phylo::Tree& out) {
  auto t = reader_->next();
  if (!t) {
    return false;
  }
  out = std::move(*t);
  return true;
}

void FileTreeSource::reset() { open(); }

bool FileTreeSource::next_record(std::string& out) {
  return reader_->next_record(out);
}

std::optional<std::size_t> FileTreeSource::size_hint() const {
  if (!cached_hint_) {
    // One buffered pass over a separate descriptor (the streaming reader's
    // position is untouched), counting tree terminators.
    std::ifstream scan(path_, std::ios::binary);
    if (!scan) {
      return std::nullopt;
    }
    std::size_t count = 0;
    char buf[64 * 1024];
    while (scan.read(buf, sizeof buf) || scan.gcount() > 0) {
      const std::streamsize got = scan.gcount();
      for (std::streamsize i = 0; i < got; ++i) {
        count += buf[i] == ';' ? 1 : 0;
      }
      if (got < static_cast<std::streamsize>(sizeof buf)) {
        break;
      }
    }
    cached_hint_ = count;
  }
  return cached_hint_;
}

P2vFileSource::P2vFileSource(std::string path) : path_(std::move(path)) {
  open();
}

void P2vFileSource::open() {
  in_.close();
  in_.clear();
  in_.open(path_, std::ios::binary);
  if (!in_) {
    throw ParseError("cannot open '" + path_ + "'");
  }
  reader_ = std::make_unique<phylo::P2vReader>(in_);
}

bool P2vFileSource::next(phylo::TreeVector& out) { return reader_->next(out); }

void P2vFileSource::reset() { open(); }

std::size_t P2vFileSource::n_taxa() const { return reader_->header().n_taxa; }

std::optional<std::size_t> P2vFileSource::size_hint() const {
  // Exact by construction: the corpus header counts its records.
  return reader_->header().n_trees;
}

const phylo::P2vHeader& P2vFileSource::header() const {
  return reader_->header();
}

}  // namespace bfhrf::core
