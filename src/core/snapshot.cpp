#include "core/snapshot.hpp"

#include <utility>

#include "core/serialize.hpp"
#include "util/error.hpp"

namespace bfhrf::core {

IndexSnapshot::IndexSnapshot(Bfhrf engine, phylo::TaxonSetPtr taxa,
                             std::string source)
    : engine_(std::move(engine)),
      taxa_(std::move(taxa)),
      source_(std::move(source)) {
  if (taxa_ == nullptr) {
    throw InvalidArgument("IndexSnapshot needs a taxon set");
  }
  if (engine_.store().n_bits() != taxa_->size()) {
    throw InvalidArgument(
        "IndexSnapshot: engine universe width " +
        std::to_string(engine_.store().n_bits()) +
        " != taxon set size " + std::to_string(taxa_->size()));
  }
  // freeze() is a plain (non-atomic) write. A snapshot is routinely built
  // over a LIVE snapshot's shared namespace (RfServer::publish_file runs on
  // a worker while other workers parse queries against the same TaxonSet),
  // so re-storing `frozen_ = true` there would race with those readers.
  // Skip the write when the set is already frozen; an unfrozen set is by
  // construction still privately owned by the builder.
  if (!taxa_->frozen()) {
    taxa_->freeze();
  }
}

std::shared_ptr<const IndexSnapshot> IndexSnapshot::build(
    phylo::TaxonSetPtr taxa, std::span<const phylo::Tree> reference,
    const BfhrfOptions& opts, std::string source) {
  if (taxa == nullptr) {
    throw InvalidArgument("IndexSnapshot::build needs a taxon set");
  }
  Bfhrf engine(taxa->size(), opts);
  engine.build(reference);
  return std::make_shared<const IndexSnapshot>(
      std::move(engine), std::move(taxa), std::move(source));
}

std::shared_ptr<const IndexSnapshot> IndexSnapshot::open(
    const std::string& path, phylo::TaxonSetPtr taxa,
    const BfhrfOptions& opts) {
  if (taxa == nullptr) {
    throw InvalidArgument("IndexSnapshot::open needs a taxon set");
  }
  Bfhrf engine = load_bfhrf_file(path, opts);
  return std::make_shared<const IndexSnapshot>(std::move(engine),
                                               std::move(taxa), path);
}

double IndexSnapshot::query_newick(std::string_view newick) const {
  return engine_.query_newick(newick, taxa_);
}

}  // namespace bfhrf::core
