#include "phylo/vector_codec.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <utility>

#include "obs/metrics.hpp"
#include "util/atomic_file.hpp"
#include "util/error.hpp"

namespace bfhrf::phylo {
namespace {

const obs::Counter g_encode_trees = obs::counter("bfhrf.codec.encode_trees");
const obs::Counter g_decode_trees = obs::counter("bfhrf.codec.decode_trees");
const obs::Counter g_direct_extracts =
    obs::counter("bfhrf.codec.direct_extracts");
const obs::Counter g_p2v_records = obs::counter("bfhrf.codec.p2v.records");
const obs::Counter g_p2v_bytes = obs::counter("bfhrf.codec.p2v.bytes");

constexpr char kMagic[4] = {'P', '2', 'V', '1'};
constexpr std::uint32_t kFlagLabels = 1U;
// Labels are taxon names; a multi-megabyte length is a corrupt or hostile
// header, not data — reject before allocating (serve-decoder discipline).
constexpr std::uint32_t kMaxLabelBytes = 1U << 20;

[[noreturn]] void bad_code(std::size_t j, std::uint32_t code) {
  throw InvalidArgument("tree vector: code " + std::to_string(code) +
                        " at position " + std::to_string(j) +
                        " exceeds maximum " + std::to_string(2 * j));
}

/// Replay the leaf-attachment process on a flat parent array.
///
/// Node ids: leaves are 0..n-1 (their taxon index); the internal node
/// created at step i is n+i-1; 2n-1 nodes total. Returns the root id.
/// `parent` is caller scratch (assigned, not reallocated once warm).
std::int32_t decode_topology(std::span<const std::uint32_t> v,
                             std::vector<std::int32_t>& parent) {
  const std::size_t n = v.size() + 1;
  parent.assign(2 * n - 1, -1);
  std::int32_t root = 0;
  for (std::size_t i = 1; i < n; ++i) {
    const std::uint32_t c = v[i - 1];
    if (c > 2 * (i - 1)) {
      bad_code(i - 1, c);
    }
    // c <= i-1 names the pendant branch of leaf c; larger codes name the
    // branch above the step-(c-i+1) internal node, i.e. id n+c-i.
    const std::size_t target = c < i ? std::size_t{c} : n + c - i;
    const std::size_t m = n + i - 1;
    parent[m] = parent[target];
    parent[target] = static_cast<std::int32_t>(m);
    parent[i] = static_cast<std::int32_t>(m);
    if (static_cast<std::int32_t>(target) == root) {
      root = static_cast<std::int32_t>(m);
    }
  }
  return root;
}

void put_u32(std::ostream& out, std::uint32_t v) {
  const char b[4] = {static_cast<char>(v & 0xFF),
                     static_cast<char>((v >> 8) & 0xFF),
                     static_cast<char>((v >> 16) & 0xFF),
                     static_cast<char>((v >> 24) & 0xFF)};
  out.write(b, 4);
}

void put_u64(std::ostream& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v & 0xFFFFFFFFU));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(std::istream& in, const char* what) {
  unsigned char b[4];
  if (!in.read(reinterpret_cast<char*>(b), 4)) {
    throw ParseError(std::string("p2v: truncated ") + what);
  }
  g_p2v_bytes.inc(4);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

std::uint64_t get_u64(std::istream& in, const char* what) {
  const std::uint64_t lo = get_u32(in, what);
  const std::uint64_t hi = get_u32(in, what);
  return lo | (hi << 32);
}

}  // namespace

void validate_vector(std::span<const std::uint32_t> v) {
  for (std::size_t j = 0; j < v.size(); ++j) {
    if (v[j] > 2 * j) {
      bad_code(j, v[j]);
    }
  }
}

Tree vector_to_tree(std::span<const std::uint32_t> v,
                    const TaxonSetPtr& taxa) {
  if (!taxa) {
    throw InvalidArgument("vector_to_tree: null taxon set");
  }
  const std::size_t n = v.size() + 1;
  if (taxa->size() != n) {
    throw InvalidArgument("vector_to_tree: vector implies " +
                          std::to_string(n) + " taxa but the set has " +
                          std::to_string(taxa->size()));
  }
  Tree tree(taxa);
  if (n == 1) {
    tree.set_taxon(tree.add_root(), 0);
    g_decode_trees.inc();
    return tree;
  }

  std::vector<std::int32_t> parent;
  const std::int32_t root = decode_topology(v, parent);
  const std::size_t total = 2 * n - 1;
  std::vector<std::int32_t> child0(total, -1);
  std::vector<std::int32_t> child1(total, -1);
  for (std::size_t x = 0; x < total; ++x) {
    const std::int32_t p = parent[x];
    if (p < 0) {
      continue;
    }
    if (child0[static_cast<std::size_t>(p)] < 0) {
      child0[static_cast<std::size_t>(p)] = static_cast<std::int32_t>(x);
    } else {
      child1[static_cast<std::size_t>(p)] = static_cast<std::int32_t>(x);
    }
  }

  tree.reserve(total);
  std::vector<std::pair<std::int32_t, NodeId>> stack;
  stack.reserve(total);
  stack.emplace_back(root, kNoNode);
  while (!stack.empty()) {
    const auto [id, tree_parent] = stack.back();
    stack.pop_back();
    if (id < static_cast<std::int32_t>(n)) {
      tree.add_leaf(tree_parent, static_cast<TaxonId>(id));
      continue;
    }
    const NodeId nid =
        tree_parent == kNoNode ? tree.add_root() : tree.add_child(tree_parent);
    const auto ix = static_cast<std::size_t>(id);
    // child0 on top of the stack so it materializes first.
    stack.emplace_back(child1[ix], nid);
    stack.emplace_back(child0[ix], nid);
  }
  g_decode_trees.inc();
  return tree;
}

TreeVector tree_to_vector(const Tree& tree) {
  if (tree.empty() || !tree.taxa()) {
    throw InvalidArgument("tree_to_vector: empty tree or no taxa");
  }
  const std::size_t n = tree.taxa()->size();
  if (tree.num_leaves() != n) {
    throw InvalidArgument(
        "tree_to_vector: tree covers " + std::to_string(tree.num_leaves()) +
        " of " + std::to_string(n) + " taxa (full coverage required)");
  }
  if (n == 1) {
    g_encode_trees.inc();
    return {};
  }

  // Re-express the tree on flat id arrays: leaves keep their taxon index,
  // internal nodes take n.. in postorder (so children precede parents). A
  // degree-3 root — the repo's unrooted convention — is rooted
  // deterministically by grouping its trailing two children under a
  // synthetic node.
  const std::size_t total = 2 * n - 1;
  std::vector<std::int32_t> parent(total, -1);
  std::vector<std::int32_t> child0(total, -1);
  std::vector<std::int32_t> child1(total, -1);
  const std::vector<NodeId> order = tree.postorder();
  std::vector<std::int32_t> flat_id(tree.num_nodes(), -1);
  util::DynamicBitset seen(n);
  auto next_internal = static_cast<std::int32_t>(n);
  const auto link = [&](std::int32_t p, std::int32_t c) {
    parent[static_cast<std::size_t>(c)] = p;
    if (child0[static_cast<std::size_t>(p)] < 0) {
      child0[static_cast<std::size_t>(p)] = c;
    } else {
      child1[static_cast<std::size_t>(p)] = c;
    }
  };
  for (const NodeId nd : order) {
    const auto ni = static_cast<std::size_t>(nd);
    if (tree.is_leaf(nd)) {
      const TaxonId taxon = tree.node(nd).taxon;
      if (taxon < 0 || static_cast<std::size_t>(taxon) >= n) {
        throw InvalidArgument("tree_to_vector: leaf taxon out of range");
      }
      if (seen.test(static_cast<std::size_t>(taxon))) {
        throw InvalidArgument("tree_to_vector: duplicate taxon " +
                              tree.taxa()->label_of(taxon));
      }
      seen.set(static_cast<std::size_t>(taxon));
      flat_id[ni] = taxon;
      continue;
    }
    const std::size_t degree = tree.num_children(nd);
    if (degree == 2) {
      const std::int32_t m = next_internal++;
      tree.for_each_child(nd, [&](NodeId c) {
        link(m, flat_id[static_cast<std::size_t>(c)]);
      });
      flat_id[ni] = m;
    } else if (tree.is_root(nd) && degree == 3) {
      const std::vector<NodeId> kids = tree.children(nd);
      const std::int32_t grouped = next_internal++;
      link(grouped, flat_id[static_cast<std::size_t>(kids[1])]);
      link(grouped, flat_id[static_cast<std::size_t>(kids[2])]);
      const std::int32_t top = next_internal++;
      link(top, flat_id[static_cast<std::size_t>(kids[0])]);
      link(top, grouped);
      flat_id[ni] = top;
    } else {
      throw InvalidArgument(
          "tree_to_vector: tree must be binary (every internal node "
          "degree 2, root degree 2 or 3)");
    }
  }
  BFHRF_ASSERT(next_internal == static_cast<std::int32_t>(total));

  // Creation steps from the final tree: the step-i node is the unique
  // internal node whose two child-subtree minimum labels max out at i
  // (subtree minima are invariant under later interpositions). Internal
  // flat ids are postordered, so one ascending pass suffices.
  std::vector<std::int32_t> ell(total);
  std::vector<std::int32_t> step(total, 0);
  for (std::size_t x = 0; x < n; ++x) {
    ell[x] = static_cast<std::int32_t>(x);
  }
  for (std::size_t m = n; m < total; ++m) {
    const std::int32_t a = ell[static_cast<std::size_t>(child0[m])];
    const std::int32_t b = ell[static_cast<std::size_t>(child1[m])];
    ell[m] = std::min(a, b);
    step[m] = std::max(a, b);
  }

  // Reverse deletion: splice leaves n-1..1 back off. When leaf i goes, its
  // parent is exactly the step-i node and its sibling names the code.
  TreeVector out(n - 1);
  for (std::size_t i = n - 1; i >= 1; --i) {
    const std::int32_t m = parent[i];
    BFHRF_ASSERT(m >= 0 && step[static_cast<std::size_t>(m)] ==
                               static_cast<std::int32_t>(i));
    const auto mi = static_cast<std::size_t>(m);
    const std::int32_t sibling = child0[mi] == static_cast<std::int32_t>(i)
                                     ? child1[mi]
                                     : child0[mi];
    const std::uint32_t code =
        sibling < static_cast<std::int32_t>(n)
            ? static_cast<std::uint32_t>(sibling)
            : static_cast<std::uint32_t>(step[static_cast<std::size_t>(
                                             sibling)] +
                                         static_cast<std::int32_t>(i) - 1);
    BFHRF_ASSERT(code <= 2 * (i - 1));
    out[i - 1] = code;
    const std::int32_t p = parent[mi];
    if (p >= 0) {
      const auto pi = static_cast<std::size_t>(p);
      (child0[pi] == m ? child0[pi] : child1[pi]) = sibling;
    }
    parent[static_cast<std::size_t>(sibling)] = p;
  }
  g_encode_trees.inc();
  return out;
}

std::string format_vector(std::span<const std::uint32_t> v) {
  std::string out;
  out.reserve(v.size() * 3);
  for (std::size_t j = 0; j < v.size(); ++j) {
    if (j != 0) {
      out.push_back(',');
    }
    out += std::to_string(v[j]);
  }
  return out;
}

TreeVector parse_vector(std::string_view text) {
  const std::size_t begin = text.find_first_not_of(" \t\r\n");
  if (begin == std::string_view::npos) {
    throw ParseError("parse_vector: empty input");
  }
  const std::size_t end = text.find_last_not_of(" \t\r\n");
  text = text.substr(begin, end - begin + 1);

  TreeVector out;
  std::size_t pos = 0;
  while (true) {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t')) {
      ++pos;
    }
    std::uint32_t value = 0;
    const char* first = text.data() + pos;
    const char* last = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || ptr == first) {
      throw ParseError("parse_vector: expected integer at offset " +
                       std::to_string(pos));
    }
    out.push_back(value);
    pos = static_cast<std::size_t>(ptr - text.data());
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t')) {
      ++pos;
    }
    if (pos == text.size()) {
      break;
    }
    if (text[pos] != ',') {
      throw ParseError("parse_vector: expected ',' at offset " +
                       std::to_string(pos));
    }
    ++pos;
  }
  try {
    validate_vector(out);
  } catch (const Error& e) {
    throw ParseError(std::string("parse_vector: ") + e.what());
  }
  return out;
}

// --- binary corpus ----------------------------------------------------------

P2vWriter::P2vWriter(std::ostream& out, std::uint32_t n_taxa,
                     std::span<const std::string> labels)
    : out_(out), n_taxa_(n_taxa) {
  if (n_taxa == 0) {
    throw InvalidArgument("p2v: n_taxa must be >= 1");
  }
  if (!labels.empty() && labels.size() != n_taxa) {
    throw InvalidArgument("p2v: label count " + std::to_string(labels.size()) +
                          " does not match n_taxa " + std::to_string(n_taxa));
  }
  out_.write(kMagic, 4);
  put_u32(out_, n_taxa_);
  count_pos_ = out_.tellp();
  put_u64(out_, 0);  // patched by finish()
  put_u32(out_, labels.empty() ? 0 : kFlagLabels);
  for (const std::string& label : labels) {
    if (label.size() > kMaxLabelBytes) {
      throw InvalidArgument("p2v: label too long: " +
                            std::to_string(label.size()) + " bytes");
    }
    put_u32(out_, static_cast<std::uint32_t>(label.size()));
    out_.write(label.data(), static_cast<std::streamsize>(label.size()));
  }
  if (!out_) {
    throw Error("p2v: header write failed");
  }
}

void P2vWriter::write(std::span<const std::uint32_t> v) {
  if (finished_) {
    throw InvalidArgument("p2v: write after finish()");
  }
  if (v.size() + 1 != n_taxa_) {
    throw InvalidArgument("p2v: record width " + std::to_string(v.size()) +
                          " does not match n_taxa " + std::to_string(n_taxa_));
  }
  validate_vector(v);
  if constexpr (std::endian::native == std::endian::little) {
    out_.write(reinterpret_cast<const char*>(v.data()),
               static_cast<std::streamsize>(v.size() * sizeof(std::uint32_t)));
  } else {
    for (const std::uint32_t code : v) {
      put_u32(out_, code);
    }
  }
  if (!out_) {
    throw Error("p2v: record write failed");
  }
  ++count_;
}

void P2vWriter::finish() {
  if (finished_) {
    return;
  }
  finished_ = true;
  if (count_pos_ == std::streampos(-1)) {
    throw Error("p2v: stream is not seekable; cannot patch counted header");
  }
  const std::streampos end = out_.tellp();
  out_.seekp(count_pos_);
  put_u64(out_, count_);
  out_.seekp(end);
  out_.flush();
  if (!out_) {
    throw Error("p2v: header patch failed");
  }
}

P2vReader::P2vReader(std::istream& in) : in_(in) {
  char magic[4];
  if (!in_.read(magic, 4)) {
    throw ParseError("p2v: truncated header (magic)");
  }
  g_p2v_bytes.inc(4);
  if (std::memcmp(magic, kMagic, 4) != 0) {
    throw ParseError("p2v: bad magic (not a P2V1 corpus)");
  }
  header_.n_taxa = get_u32(in_, "header (n_taxa)");
  if (header_.n_taxa == 0) {
    throw ParseError("p2v: n_taxa must be >= 1");
  }
  header_.n_trees = get_u64(in_, "header (n_trees)");
  const std::uint32_t flags = get_u32(in_, "header (flags)");
  if ((flags & ~kFlagLabels) != 0) {
    throw ParseError("p2v: unknown header flags " + std::to_string(flags));
  }
  if ((flags & kFlagLabels) != 0) {
    header_.labels.resize(header_.n_taxa);
    for (std::string& label : header_.labels) {
      const std::uint32_t len = get_u32(in_, "label length");
      if (len > kMaxLabelBytes) {
        throw ParseError("p2v: implausible label length " +
                         std::to_string(len));
      }
      label.resize(len);
      if (len != 0 &&
          !in_.read(label.data(), static_cast<std::streamsize>(len))) {
        throw ParseError("p2v: truncated label");
      }
      g_p2v_bytes.inc(len);
    }
  }
}

bool P2vReader::next(TreeVector& out) {
  if (read_ == header_.n_trees) {
    // Exact-consumption check, same discipline as the serve decoders:
    // a corpus with bytes past the declared records is corrupt.
    if (in_.peek() != std::char_traits<char>::eof()) {
      throw ParseError("p2v: trailing bytes after " +
                       std::to_string(header_.n_trees) + " declared records");
    }
    return false;
  }
  const std::size_t width = static_cast<std::size_t>(header_.n_taxa) - 1;
  out.resize(width);
  if (width != 0) {
    const std::size_t bytes = width * sizeof(std::uint32_t);
    if (!in_.read(reinterpret_cast<char*>(out.data()),
                  static_cast<std::streamsize>(bytes))) {
      throw ParseError("p2v: truncated record " + std::to_string(read_) +
                       " of " + std::to_string(header_.n_trees));
    }
    g_p2v_bytes.inc(bytes);
    if constexpr (std::endian::native != std::endian::little) {
      for (std::uint32_t& code : out) {
        code = ((code & 0x000000FFU) << 24) | ((code & 0x0000FF00U) << 8) |
               ((code & 0x00FF0000U) >> 8) | ((code & 0xFF000000U) >> 24);
      }
    }
  }
  try {
    validate_vector(out);
  } catch (const Error& e) {
    throw ParseError("p2v: record " + std::to_string(read_) + ": " + e.what());
  }
  ++read_;
  g_p2v_records.inc();
  return true;
}

P2vHeader read_p2v_header(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw Error("p2v: cannot open " + path);
  }
  P2vReader reader(in);
  return reader.header();
}

void write_p2v_file(const std::string& path, std::uint32_t n_taxa,
                    std::span<const TreeVector> vectors,
                    std::span<const std::string> labels) {
  util::AtomicFile file(path);
  P2vWriter writer(file.stream(), n_taxa, labels);
  for (const TreeVector& v : vectors) {
    writer.write(v);
  }
  writer.finish();
  file.commit();
}

void write_p2v_file(const std::string& path, std::span<const Tree> trees) {
  if (trees.empty()) {
    throw InvalidArgument("write_p2v_file: empty collection");
  }
  const TaxonSetPtr& taxa = trees.front().taxa();
  if (!taxa) {
    throw InvalidArgument("write_p2v_file: trees carry no taxon set");
  }
  util::AtomicFile file(path);
  P2vWriter writer(file.stream(), static_cast<std::uint32_t>(taxa->size()),
                   taxa->labels());
  for (const Tree& tree : trees) {
    writer.write(tree_to_vector(tree));
  }
  writer.finish();
  file.commit();
}

// --- direct extraction ------------------------------------------------------

const BipartitionSet& VectorBipartitionExtractor::extract(
    std::span<const std::uint32_t> v, const BipartitionOptions& opts) {
  extract_into(v, opts, set_);
  return set_;
}

void VectorBipartitionExtractor::extract_into(std::span<const std::uint32_t> v,
                                              const BipartitionOptions& opts,
                                              BipartitionSet& out) {
  if (opts.value != SplitValue::None) {
    throw InvalidArgument(
        "VectorBipartitionExtractor: vectors carry no per-edge values");
  }
  const std::size_t n = v.size() + 1;
  const std::size_t words = util::words_for_bits(n);
  if (leaf_mask_.size() != n) {
    leaf_mask_ = util::DynamicBitset(n);
  }

  const std::int32_t root = decode_topology(v, parent_);
  const std::size_t total = 2 * n - 1;
  const auto mask_of = [&](std::int32_t id) {
    return masks_.data() + static_cast<std::size_t>(id) * words;
  };

  // Bottom-up mask accumulation over the parent array. Creation order is
  // not topological (later internal nodes interpose below earlier ones),
  // so fold with a pending-children ready queue: leaves seed it, a node
  // joins once both of its children have OR-ed in. Each node's linear
  // fingerprint folds beside its mask: the XOR of its children's.
  masks_.assign(total * words, 0);
  linear_.assign(total, 0);
  pending_.assign(total, 0);
  for (std::size_t x = 0; x < total; ++x) {
    if (static_cast<std::int32_t>(x) != root) {
      ++pending_[static_cast<std::size_t>(parent_[x])];
    }
  }
  ready_.clear();
  ready_.reserve(total);
  for (std::size_t leaf = 0; leaf < n; ++leaf) {
    mask_of(static_cast<std::int32_t>(leaf))[leaf >> 6] |=
        (std::uint64_t{1} << (leaf & 63));
    linear_[leaf] = util::taxon_column(leaf);
    ready_.push_back(static_cast<std::int32_t>(leaf));
  }
  for (std::size_t head = 0; head < ready_.size(); ++head) {
    const std::int32_t x = ready_[head];
    const std::int32_t p = parent_[static_cast<std::size_t>(x)];
    if (p < 0) {
      continue;
    }
    const std::uint64_t* xm = mask_of(x);
    std::uint64_t* pm = mask_of(p);
    for (std::size_t w = 0; w < words; ++w) {
      pm[w] |= xm[w];
    }
    linear_[static_cast<std::size_t>(p)] ^=
        linear_[static_cast<std::size_t>(x)];
    if (--pending_[static_cast<std::size_t>(p)] == 0) {
      ready_.push_back(p);
    }
  }

  // Full coverage by construction: the leaf universe is the root's mask
  // and the canonical-polarity pivot (lowest present taxon) is bit 0.
  {
    const std::uint64_t* rm = mask_of(root);
    std::copy(rm, rm + words, leaf_mask_.mutable_words().begin());
  }

  // Leaves only ever yield trivial splits, so the column starts past them
  // unless include_trivial asks for them; the root's full mask falls to
  // the trivial filter. A decoded tree has a degree-2 root (or is one
  // leaf), whose two child masks are complements: the larger-id child is
  // the twin.
  const std::size_t first = opts.include_trivial ? 0 : n;
  std::size_t twin = kNoTwin;
  for (std::size_t x = first; x < total; ++x) {
    if (parent_[x] == root) {
      twin = x - first;
    }
  }
  finish_splits({.sides = util::ConstWordSpan(masks_).subspan(first * words),
                 .linear = std::span<const std::uint64_t>(linear_).subspan(
                     first),
                 .leaf_mask = leaf_mask_,
                 .leaves = n,
                 .twin = twin},
                opts, out, finalize_scratch_);
  g_direct_extracts.inc();
}

}  // namespace bfhrf::phylo
