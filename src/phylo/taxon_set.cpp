#include "phylo/taxon_set.hpp"

#include "util/error.hpp"

namespace bfhrf::phylo {

TaxonSet::TaxonSet(const std::vector<std::string>& labels) {
  labels_.reserve(labels.size());
  for (const auto& label : labels) {
    if (index_.contains(label)) {
      throw InvalidArgument("duplicate taxon label '" + label + "'");
    }
    index_.emplace(label, static_cast<TaxonId>(labels_.size()));
    labels_.push_back(label);
  }
}

TaxonId TaxonSet::add_or_get(std::string_view label) {
  if (const auto it = index_.find(label); it != index_.end()) {
    return it->second;
  }
  if (frozen_) {
    throw InvalidArgument("unknown taxon '" + std::string(label) +
                          "' in a frozen taxon set");
  }
  const auto id = static_cast<TaxonId>(labels_.size());
  labels_.emplace_back(label);
  index_.emplace(labels_.back(), id);
  return id;
}

std::optional<TaxonId> TaxonSet::find(std::string_view label) const {
  const auto it = index_.find(label);
  if (it == index_.end()) {
    return std::nullopt;
  }
  return it->second;
}

TaxonId TaxonSet::index_of(std::string_view label) const {
  if (const auto id = find(label)) {
    return *id;
  }
  throw InvalidArgument("unknown taxon '" + std::string(label) + "'");
}

const std::string& TaxonSet::label_of(TaxonId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= labels_.size()) {
    throw InvalidArgument("taxon id " + std::to_string(id) + " out of range");
  }
  return labels_[static_cast<std::size_t>(id)];
}

std::shared_ptr<TaxonSet> TaxonSet::make_numbered(std::size_t n,
                                                  std::string_view prefix) {
  auto ts = std::make_shared<TaxonSet>();
  for (std::size_t i = 0; i < n; ++i) {
    ts->add_or_get(std::string(prefix) + std::to_string(i));
  }
  return ts;
}

}  // namespace bfhrf::phylo
