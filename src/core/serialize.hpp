// Persistence for built BFHRF engines.
//
// A reference collection's frequency hash is expensive to build once r is
// large but tiny on disk (unique splits only); saving it turns the CLI and
// library into a build-once / query-many system — the natural production
// deployment of the paper's two-phase design:
//
//   Bfhrf engine(n); engine.build(reference);
//   save_bfhrf_file(engine, path);                       // once
//   ...
//   Bfhrf engine = load_bfhrf_file(path, {.threads = 8});  // per batch
//
// There is one on-disk format, "BFHMAP" (core/index_file.hpp): one
// section-aligned table whose bytes depend only on the store's contents.
// Loading mmaps the file, validates it, and serves queries directly off
// the mapping — zero deserialization, and no table allocated: the loaded
// engine answers through the same read-only BfhIndexView a build gives.
// Only core/index_file knows the layout and its magic.
//
// NOTE: if the engine was built under a filter/weight variant, the stored
// keys are the filtered ones and total_weight is the weighted sum; load
// with the SAME variant in the options or query results will be
// inconsistent (this is documented, not detectable, because variants are
// arbitrary code).
#pragma once

#include <string>

#include "core/bfhrf.hpp"

namespace bfhrf::core {

/// On-disk representation written by save_bfhrf_file. BFHMAP is the only
/// one; the parameter remains so callers can name it explicitly.
enum class IndexFormat {
  Mapped,  ///< "BFHMAP" one table (mmap on load, zero-copy serve)
};

/// Save a built engine atomically (core/index_file: temp file, fsync,
/// rename). Throws InvalidArgument if the engine has not been built or
/// already serves a mapped file, Error on I/O failure.
void save_bfhrf_file(const Bfhrf& engine, const std::string& path,
                     IndexFormat format = IndexFormat::Mapped);

/// Open a saved index as a read-only engine: the file is mmapped,
/// validated, and queried in place — bit-identical results. Calling build
/// on the engine throws. Runtime options (threads, variant, norm) come
/// from `opts`; the store kind, trivial-split convention, universe width
/// and contents come from the file, and no table is allocated. Throws
/// Error when the file cannot be opened or mapped, ParseError when it is
/// malformed.
[[nodiscard]] Bfhrf load_bfhrf_file(const std::string& path,
                                    BfhrfOptions opts = {});

}  // namespace bfhrf::core
