// Tree: arena-allocated phylogenetic tree.
//
// Nodes live contiguously in one vector and refer to each other by index
// (first-child / next-sibling, plus a last-child link so a child appends
// in O(1)), so a tree is two allocations total and traversals are
// cache-friendly — this matters when streaming 10^5 trees. walk() visits
// them in the order of the tree's Newick text, which is how bipartition
// extraction (bipartition.hpp) and write_newick (newick.hpp) read a tree.
//
// Rooted vs unrooted: the structure is stored rooted. An unrooted binary
// tree on n taxa is represented as a tree whose root has degree >= 3 (the
// usual convention). Bipartition extraction (bipartition.hpp) is invariant
// to the chosen rooting, which tests verify by rerooting.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "phylo/taxon_set.hpp"
#include "util/error.hpp"

namespace bfhrf::phylo {

using NodeId = std::int32_t;
inline constexpr NodeId kNoNode = -1;

class Tree {
 public:
  struct Node {
    NodeId parent = kNoNode;
    NodeId first_child = kNoNode;
    NodeId next_sibling = kNoNode;
    TaxonId taxon = kNoTaxon;  ///< leaf taxon index; kNoTaxon for internal
    double length = 0.0;       ///< branch length to parent (0 if absent)
    double support = 0.0;      ///< internal-node support value (0 if absent)
    bool has_length = false;   ///< whether the input carried a length
    bool has_support = false;  ///< whether the input carried a support
    NodeId last_child = kNoNode;  ///< append point (fills the padding)
  };

  Tree() = default;
  explicit Tree(TaxonSetPtr taxa) : taxa_(std::move(taxa)) {}

  // --- construction -------------------------------------------------------

  /// Create the root node. The tree must be empty.
  NodeId add_root();

  /// Create a child of `parent` (appended after existing children, in
  /// O(1) through the parent's last-child link).
  NodeId add_child(NodeId parent);

  /// Create a leaf child of `parent` bound to `taxon`.
  NodeId add_leaf(NodeId parent, TaxonId taxon);

  void set_taxon(NodeId node, TaxonId taxon) {
    Node& nd = at(node);
    if (nd.first_child == kNoNode) {
      // Keep the cached leaf count correct when a childless node gains or
      // loses its taxon (only the degenerate single-leaf path does this).
      if (nd.taxon == kNoTaxon && taxon != kNoTaxon) {
        ++num_leaves_;
      } else if (nd.taxon != kNoTaxon && taxon == kNoTaxon) {
        --num_leaves_;
      }
    }
    nd.taxon = taxon;
  }
  void set_length(NodeId node, double length) {
    at(node).length = length;
    at(node).has_length = true;
  }
  void set_support(NodeId node, double support) {
    at(node).support = support;
    at(node).has_support = true;
  }

  void reserve(std::size_t nodes) { nodes_.reserve(nodes); }

  // --- access --------------------------------------------------------------

  [[nodiscard]] const TaxonSetPtr& taxa() const noexcept { return taxa_; }
  void set_taxa(TaxonSetPtr taxa) noexcept { taxa_ = std::move(taxa); }

  [[nodiscard]] NodeId root() const noexcept { return root_; }
  [[nodiscard]] std::size_t num_nodes() const noexcept { return nodes_.size(); }
  [[nodiscard]] bool empty() const noexcept { return nodes_.empty(); }

  [[nodiscard]] const Node& node(NodeId id) const { return at(id); }

  [[nodiscard]] bool is_leaf(NodeId id) const {
    return at(id).first_child == kNoNode;
  }
  [[nodiscard]] bool is_root(NodeId id) const { return id == root_; }

  /// Number of children of `id`.
  [[nodiscard]] std::size_t num_children(NodeId id) const;

  /// Children of `id` in order.
  [[nodiscard]] std::vector<NodeId> children(NodeId id) const;

  /// Invoke fn(child) over the children of `id`.
  template <typename Fn>
  void for_each_child(NodeId id, Fn&& fn) const {
    for (NodeId c = at(id).first_child; c != kNoNode;
         c = at(c).next_sibling) {
      fn(c);
    }
  }

  [[nodiscard]] std::size_t num_leaves() const noexcept { return num_leaves_; }

  /// Nodes in postorder (children before parents). Computed iteratively;
  /// safe for arbitrarily deep (caterpillar) trees.
  [[nodiscard]] std::vector<NodeId> postorder() const;

  /// Depth first over the child links, reporting each node as the tree's
  /// Newick text would: open(id) entering an internal node, leaf(id) at a
  /// leaf, close(id) after an internal node's last child. Parent links
  /// lead back up, so the walk keeps no stack and allocates nothing.
  template <typename Open, typename Leaf, typename Close>
  void walk(Open&& open, Leaf&& leaf, Close&& close) const {
    if (empty()) {
      return;
    }
    for (NodeId id = root_;;) {
      const Node* nd = &at(id);
      for (; nd->first_child != kNoNode; nd = &at(id)) {
        open(id);
        id = nd->first_child;
      }
      leaf(id);
      while (id != root_ && nd->next_sibling == kNoNode) {
        id = nd->parent;
        nd = &at(id);
        close(id);
      }
      if (id == root_) {
        return;
      }
      id = nd->next_sibling;
    }
  }

  /// Leaf node ids, left to right (their postorder).
  [[nodiscard]] std::vector<NodeId> leaves() const;

  /// Taxa present in this tree, ascending.
  [[nodiscard]] std::vector<TaxonId> leaf_taxa_sorted() const;

  // --- structure queries ---------------------------------------------------

  /// True if every internal node has exactly 2 children, except that the
  /// root may have 2 (rooted binary) or 3 (unrooted binary) children.
  [[nodiscard]] bool is_binary() const;

  /// True if any internal non-root node has more than 2 children, or the
  /// root has more than 3.
  [[nodiscard]] bool is_multifurcating() const { return !is_binary(); }

  /// Number of internal edges, i.e. edges whose child end is not a leaf and
  /// not redundant with the root. This is the count of (possibly duplicate)
  /// non-trivial bipartitions the tree induces.
  [[nodiscard]] std::size_t num_internal_edges() const;

  // --- transformations -----------------------------------------------------

  /// Subdivide the edge above `node` with a new internal node and hang a
  /// fresh leaf for `taxon` off it. `node` must not be the root. Returns the
  /// new leaf's id. Existing node ids remain valid. (Used by the random
  /// tree generators and SPR moves.)
  NodeId split_edge_insert_leaf(NodeId node, TaxonId taxon);

  /// Collapse nodes with exactly one child (can arise from pruning),
  /// summing branch lengths. Rebuilds the arena; node ids are invalidated.
  void suppress_unary();

  /// Convert a rooted-binary representation (root with 2 children) into the
  /// canonical unrooted one (root with >= 3 children) by merging the root
  /// with one internal child. No-op otherwise. Node ids are invalidated.
  void deroot();

  /// Validate structural invariants (single root, parent/child symmetry,
  /// every leaf has a taxon, taxa are unique). Throws InvariantError.
  void validate() const;

  /// Bytes of heap memory held by the node arena.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return nodes_.capacity() * sizeof(Node);
  }

 private:
  [[nodiscard]] Node& at(NodeId id) {
    BFHRF_ASSERT(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
    return nodes_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const Node& at(NodeId id) const {
    BFHRF_ASSERT(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
    return nodes_[static_cast<std::size_t>(id)];
  }

  /// Rebuild the arena keeping only subtree structure reachable from root,
  /// applying `keep_single_child_merge` semantics. Used by suppress_unary.
  void rebuild_compact(bool merge_unary);

  TaxonSetPtr taxa_;
  std::vector<Node> nodes_;
  NodeId root_ = kNoNode;
  std::size_t num_leaves_ = 0;
};

}  // namespace bfhrf::phylo
