#include "core/serialize.hpp"

#include <utility>

#include "core/index_file.hpp"
#include "util/error.hpp"

namespace bfhrf::core {

void save_bfhrf_file(const Bfhrf& engine, const std::string& path,
                     IndexFormat /*format*/) {
  const BfhrfStats stats = engine.stats();
  if (stats.reference_trees == 0) {
    throw InvalidArgument("save_bfhrf_file: engine has not been built");
  }
  write_index_file(
      engine.store(),
      IndexFileMeta{.include_trivial = engine.options().include_trivial,
                    .reference_trees = stats.reference_trees},
      path);
}

Bfhrf load_bfhrf_file(const std::string& path, BfhrfOptions opts) {
  auto mapped = std::make_unique<MappedFrequencyStore>(path);
  // Store shape is the file's, not the caller's: adopt_store discards the
  // ctor-made store, whose tables are still at their minimum size.
  opts.compressed_keys = mapped->encoding() == KeyEncoding::Sparse;
  opts.include_trivial = mapped->include_trivial();
  const std::size_t n_bits = mapped->n_bits();
  const std::size_t trees = mapped->reference_trees();
  Bfhrf engine(n_bits, opts);
  engine.adopt_store(std::move(mapped), trees);
  return engine;
}

}  // namespace bfhrf::core
