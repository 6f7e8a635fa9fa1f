#include "phylo/tree.hpp"

#include <algorithm>
#include <unordered_set>

namespace bfhrf::phylo {

// The last-child link sits in the padding after the two flags.
static_assert(sizeof(Tree::Node) == 40);

NodeId Tree::add_root() {
  BFHRF_ASSERT(nodes_.empty());
  nodes_.emplace_back();
  root_ = 0;
  return root_;
}

NodeId Tree::add_child(NodeId parent) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.emplace_back();
  nodes_.back().parent = parent;
  Node& p = at(parent);
  if (p.first_child == kNoNode) {
    p.first_child = id;
  } else {
    at(p.last_child).next_sibling = id;
  }
  p.last_child = id;
  return id;
}

NodeId Tree::add_leaf(NodeId parent, TaxonId taxon) {
  const NodeId id = add_child(parent);
  at(id).taxon = taxon;
  ++num_leaves_;
  return id;
}

std::size_t Tree::num_children(NodeId id) const {
  std::size_t k = 0;
  for_each_child(id, [&k](NodeId) { ++k; });
  return k;
}

std::vector<NodeId> Tree::children(NodeId id) const {
  std::vector<NodeId> out;
  for_each_child(id, [&out](NodeId c) { out.push_back(c); });
  return out;
}

std::vector<NodeId> Tree::postorder() const {
  std::vector<NodeId> out;
  if (empty()) {
    return out;
  }
  out.reserve(nodes_.size());
  // Two-stack trick: emit in reverse preorder with children reversed,
  // then flip — yields postorder without recursion.
  std::vector<NodeId> stack{root_};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    out.push_back(id);
    for_each_child(id, [&stack](NodeId c) { stack.push_back(c); });
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::vector<NodeId> Tree::leaves() const {
  std::vector<NodeId> out;
  out.reserve(num_leaves_);
  walk([](NodeId) {}, [&out](NodeId id) { out.push_back(id); },
       [](NodeId) {});
  return out;
}

std::vector<TaxonId> Tree::leaf_taxa_sorted() const {
  std::vector<TaxonId> taxa;
  taxa.reserve(num_leaves_);
  for (const NodeId id : leaves()) {
    taxa.push_back(at(id).taxon);
  }
  std::sort(taxa.begin(), taxa.end());
  return taxa;
}

bool Tree::is_binary() const {
  if (empty()) {
    return false;
  }
  for (NodeId id = 0; id < static_cast<NodeId>(nodes_.size()); ++id) {
    if (is_leaf(id)) {
      continue;
    }
    const std::size_t k = num_children(id);
    if (is_root(id)) {
      if (k != 2 && k != 3) {
        return false;
      }
    } else if (k != 2) {
      return false;
    }
  }
  return true;
}

std::size_t Tree::num_internal_edges() const {
  // Edges whose child end is internal. In a rooted-binary representation the
  // two root edges describe the same split, so one is discounted.
  std::size_t count = 0;
  for (NodeId id = 0; id < static_cast<NodeId>(nodes_.size()); ++id) {
    if (!is_root(id) && !is_leaf(id)) {
      ++count;
    }
  }
  if (root_ != kNoNode && num_children(root_) == 2) {
    // Rooted representation: the root subdivides one edge of the unrooted
    // tree; the split below each root child is duplicated once unless a
    // root child is a leaf (then the duplicate is trivial, not counted).
    bool both_internal = true;
    for_each_child(root_, [&](NodeId c) { both_internal &= !is_leaf(c); });
    if (both_internal && count > 0) {
      --count;
    }
  }
  return count;
}

void Tree::validate() const {
  if (empty()) {
    throw InvariantError("empty tree");
  }
  if (root_ == kNoNode || at(root_).parent != kNoNode) {
    throw InvariantError("bad root");
  }
  std::size_t leaf_count = 0;
  std::unordered_set<TaxonId> seen;
  std::size_t reachable = 0;
  for (const NodeId id : postorder()) {
    ++reachable;
    const Node& nd = at(id);
    // Each child must link back to `id`: O(n) over the tree, where asking
    // each node's parent to list it would cost O(k^2) at a k-child node.
    for_each_child(id, [&](NodeId c) {
      if (at(c).parent != id) {
        throw InvariantError("parent/child link broken at node " +
                             std::to_string(c));
      }
    });
    if (is_leaf(id)) {
      ++leaf_count;
      if (nd.taxon == kNoTaxon) {
        throw InvariantError("leaf without taxon at node " +
                             std::to_string(id));
      }
      if (!seen.insert(nd.taxon).second) {
        throw InvariantError("duplicate taxon in tree: " +
                             std::to_string(nd.taxon));
      }
    } else if (nd.taxon != kNoTaxon) {
      throw InvariantError("internal node carries a taxon");
    }
  }
  if (reachable != nodes_.size()) {
    throw InvariantError("unreachable nodes in arena");
  }
  if (leaf_count != num_leaves_) {
    throw InvariantError("leaf count cache out of date");
  }
}

void Tree::rebuild_compact(bool merge_unary) {
  Tree out(taxa_);
  out.reserve(nodes_.size());
  if (empty()) {
    *this = std::move(out);
    return;
  }

  // Skip over chains of unary nodes, accumulating branch lengths.
  struct Pending {
    NodeId old_id;
    NodeId new_parent;
  };
  // Resolve the effective child: descend through unary nodes.
  const auto resolve = [&](NodeId id, double& extra_len, bool& any_len) {
    while (merge_unary && !is_leaf(id) && num_children(id) == 1) {
      const NodeId only = at(id).first_child;
      extra_len += at(only).length;
      any_len |= at(only).has_length;
      id = only;
    }
    return id;
  };

  double root_extra = 0.0;
  bool root_any = false;
  const NodeId eff_root = resolve(root_, root_extra, root_any);

  std::vector<Pending> stack;
  const NodeId new_root = out.add_root();
  if (is_leaf(eff_root)) {
    out.at(new_root).taxon = at(eff_root).taxon;
    out.num_leaves_ = 1;
  }
  for_each_child(eff_root,
                 [&](NodeId c) { stack.push_back({c, new_root}); });
  // Children were pushed left-to-right; pop order reverses them, so reverse
  // the pending block to preserve child order.
  std::reverse(stack.begin(), stack.end());

  while (!stack.empty()) {
    const Pending p = stack.back();
    stack.pop_back();
    double extra = at(p.old_id).length;
    bool any = at(p.old_id).has_length;
    const NodeId eff = resolve(p.old_id, extra, any);
    NodeId nid;
    if (is_leaf(eff)) {
      nid = out.add_leaf(p.new_parent, at(eff).taxon);
    } else {
      nid = out.add_child(p.new_parent);
    }
    out.at(nid).length = extra;
    out.at(nid).has_length = any;
    out.at(nid).support = at(eff).support;
    out.at(nid).has_support = at(eff).has_support;
    std::vector<Pending> block;
    for_each_child(eff, [&](NodeId c) { block.push_back({c, nid}); });
    for (auto it = block.rbegin(); it != block.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  *this = std::move(out);
}

void Tree::suppress_unary() { rebuild_compact(/*merge_unary=*/true); }

NodeId Tree::split_edge_insert_leaf(NodeId node, TaxonId taxon) {
  if (node == root_ || node == kNoNode) {
    throw InvalidArgument("split_edge_insert_leaf: node must have a parent");
  }
  const NodeId parent = at(node).parent;

  // New internal node takes `node`'s slot in the parent's child list.
  const auto mid = static_cast<NodeId>(nodes_.size());
  nodes_.emplace_back();
  at(mid).parent = parent;
  at(mid).next_sibling = at(node).next_sibling;
  at(mid).first_child = node;
  if (at(parent).last_child == node) {
    at(parent).last_child = mid;
  }

  if (at(parent).first_child == node) {
    at(parent).first_child = mid;
  } else {
    NodeId c = at(parent).first_child;
    while (at(c).next_sibling != node) {
      c = at(c).next_sibling;
      BFHRF_ASSERT(c != kNoNode);
    }
    at(c).next_sibling = mid;
  }
  at(node).parent = mid;
  at(node).next_sibling = kNoNode;

  // Split the branch length evenly across the two halves of the old edge.
  if (at(node).has_length) {
    at(mid).length = at(node).length / 2;
    at(mid).has_length = true;
    at(node).length /= 2;
  }

  const auto leaf = static_cast<NodeId>(nodes_.size());
  nodes_.emplace_back();
  at(leaf).parent = mid;
  at(leaf).taxon = taxon;
  at(node).next_sibling = leaf;
  at(mid).last_child = leaf;
  ++num_leaves_;
  return leaf;
}

void Tree::deroot() {
  if (empty() || num_children(root_) != 2) {
    return;
  }
  // Pick an internal root child to dissolve into the root.
  NodeId internal_child = kNoNode;
  for_each_child(root_, [&](NodeId c) {
    if (!is_leaf(c) && internal_child == kNoNode) {
      internal_child = c;
    }
  });
  if (internal_child == kNoNode) {
    return;  // both children are leaves: a 2-taxon tree, nothing to do
  }
  // Splice the chosen child's children onto the root, then drop the child by
  // rebuilding (which also refreshes ids).
  const NodeId other = (at(root_).first_child == internal_child)
                           ? at(internal_child).next_sibling
                           : at(root_).first_child;
  // The surviving root edge carries the sum of the two root-edge lengths.
  at(other).length += at(internal_child).length;
  at(other).has_length =
      at(other).has_length || at(internal_child).has_length;

  // Re-parent: root's children become {other + internal_child's children}.
  at(root_).first_child = other;
  at(other).next_sibling = at(internal_child).first_child;
  for (NodeId c = at(internal_child).first_child; c != kNoNode;
       c = at(c).next_sibling) {
    at(c).parent = root_;
  }
  // internal_child is now unreachable; compact the arena.
  at(internal_child).first_child = kNoNode;
  rebuild_compact(/*merge_unary=*/false);
}

}  // namespace bfhrf::phylo
