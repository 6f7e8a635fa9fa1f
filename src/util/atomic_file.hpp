// Crash-safe file replacement, shared by every writer of a persisted file
// (core/index_file's BFHMAP indexes, phylo/vector_codec's .p2v corpora).
#pragma once

#include <fstream>
#include <string>

namespace bfhrf::util {

/// A file written in full before it replaces `path`. The constructor
/// creates a fresh temp file beside `path` (`<path>.tmp.<pid>.<serial>`)
/// and opens stream() on it; commit() flushes and fsyncs it, renames it
/// over `path` and fsyncs the directory, so a reader sees either the old
/// file or the complete new one, after a crash as well. Destroying an
/// uncommitted AtomicFile (a writer that threw) removes the temp file and
/// leaves `path` as it was. Failures throw bfhrf::Error naming the file.
class AtomicFile {
 public:
  explicit AtomicFile(std::string path);
  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;
  ~AtomicFile();

  /// The temp file, open for binary output; seekable.
  [[nodiscard]] std::ofstream& stream() noexcept { return out_; }

  /// Replace `path` with what stream() holds. Throws if any write failed.
  void commit();

 private:
  std::string path_;
  std::string tmp_;
  int fd_ = -1;  ///< the temp file's descriptor, kept for fsync
  std::ofstream out_;
};

}  // namespace bfhrf::util
