#include "core/serialize.hpp"

#include "core/index_file.hpp"
#include "util/error.hpp"

namespace bfhrf::core {

void save_bfhrf_file(const Bfhrf& engine, const std::string& path,
                     IndexFormat /*format*/) {
  if (engine.reference_trees_ == 0) {
    throw InvalidArgument("save_bfhrf_file: engine has not been built");
  }
  if (!engine.tables_) {
    throw InvalidArgument(
        "save_bfhrf_file: the engine serves a loaded index, whose file "
        "already is the saved form");
  }
  write_index_file(
      *engine.tables_, engine.total_weight_,
      IndexFileMeta{.include_trivial = engine.options().include_trivial,
                    .reference_trees = engine.reference_trees_},
      path);
}

Bfhrf load_bfhrf_file(const std::string& path, BfhrfOptions opts) {
  return Bfhrf(MappedIndex(path), opts);
}

}  // namespace bfhrf::core
