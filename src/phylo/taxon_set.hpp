// TaxonSet: the taxon namespace mapping labels to bit positions.
//
// This is the paper's (and Dendropy's) taxon-ordering contract (§II-B):
// every taxon gets a fixed bit index, and all bipartition bitmasks across a
// comparison are expressed over that shared index space. Trees being
// compared must share one TaxonSet instance.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace bfhrf::phylo {

using TaxonId = std::int32_t;
inline constexpr TaxonId kNoTaxon = -1;

class TaxonSet {
 public:
  TaxonSet() = default;

  /// Construct from labels in bit-index order. Throws on duplicates.
  explicit TaxonSet(const std::vector<std::string>& labels);

  /// Return the index of `label`, inserting it if new.
  /// Throws InvalidArgument if the set is frozen and the label is unknown.
  TaxonId add_or_get(std::string_view label);

  /// Index of `label`, or std::nullopt if absent.
  [[nodiscard]] std::optional<TaxonId> find(std::string_view label) const;

  /// Index of `label`; throws InvalidArgument if absent.
  [[nodiscard]] TaxonId index_of(std::string_view label) const;

  [[nodiscard]] const std::string& label_of(TaxonId id) const;

  [[nodiscard]] std::size_t size() const noexcept { return labels_.size(); }
  [[nodiscard]] bool empty() const noexcept { return labels_.empty(); }
  [[nodiscard]] bool contains(std::string_view label) const {
    return find(label).has_value();
  }

  /// Forbid further growth. Parsing query trees against a frozen reference
  /// namespace turns an unexpected taxon into a clean error instead of a
  /// silently widened universe.
  void freeze() noexcept { frozen_ = true; }
  [[nodiscard]] bool frozen() const noexcept { return frozen_; }

  [[nodiscard]] const std::vector<std::string>& labels() const noexcept {
    return labels_;
  }

  /// Convenience factory: "t0", "t1", ..., "t{n-1}".
  [[nodiscard]] static std::shared_ptr<TaxonSet> make_numbered(
      std::size_t n, std::string_view prefix = "t");

 private:
  /// Hashes std::string and std::string_view alike, so lookups by view
  /// build no temporary string.
  struct LabelHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view label) const noexcept {
      return std::hash<std::string_view>{}(label);
    }
  };

  std::vector<std::string> labels_;
  std::unordered_map<std::string, TaxonId, LabelHash, std::equal_to<>> index_;
  bool frozen_ = false;
};

using TaxonSetPtr = std::shared_ptr<TaxonSet>;

}  // namespace bfhrf::phylo
