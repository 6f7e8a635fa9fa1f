// BFHRF — Bipartition Frequency Hash Robinson-Foulds (paper §III, Alg. 2).
//
// The contribution: computing each query tree's *average* RF against a
// reference collection R directly, replacing q·r tree-vs-tree comparisons
// with r hash insertions + q tree-vs-hash comparisons.
//
// Phase 1 (build): stream R, inserting every canonical bipartition into the
// frequency hash BFH_R and accumulating sumBFHR.
//
// Phase 2 (query): for each query tree T' with kept bipartitions B(T'):
//
//   RF_left  = sumBFHR − Σ_{b'∈B(T')} BFHR[b']      (Σ_T |B(T) \ B(T')|)
//   RF_right = Σ_{b'∈B(T')} (r − BFHR[b'])           (Σ_T |B(T') \ B(T)|)
//   avgRF(T') = (RF_left + RF_right) / r
//
// Under a weighted variant every term carries w(b'); sumBFHR becomes the
// weighted total. Both phases parallelize at tree granularity in one
// code path each. With workers, the build routes each tree's keys into
// per-worker, per-shard buckets and flushes a full bucket into its shard
// under that shard's lock, so staging stays bounded whatever r is and no
// merge follows; the query is embarrassingly parallel (read-only hash).
//
// Complexity (Table I): time O(max(n²r, n²q)/64), space O(U·n/64) for U
// unique bipartitions — and U saturates as r grows (§VII-C).
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/frequency_hash.hpp"
#include "core/index_file.hpp"
#include "core/rf.hpp"
#include "core/sharded_hash.hpp"
#include "core/tree_source.hpp"
#include "core/variants.hpp"
#include "phylo/bipartition.hpp"
#include "phylo/newick.hpp"
#include "phylo/tree.hpp"

namespace bfhrf::core {

struct BfhrfOptions {
  /// Worker threads for both phases (1 = sequential; 0 = hardware default).
  /// The count also shapes the store: a build with pipeline workers
  /// (threads > 1 on a multi-core host) fills a ShardedFrequencyHash of
  /// bit_ceil(min(threads, 64)) shards, routed by the top fingerprint bits
  /// (core/sharded_hash.hpp); otherwise its one shard is a single table.
  /// Results are bit-identical either way, for every variant and key
  /// encoding: shards hold integer counts only, and sumBFHR is folded from
  /// per-tree weights in stream order.
  std::size_t threads = 1;

  /// RF variant hooks applied identically at build and query time.
  /// nullptr selects classic RF. The pointee must outlive the engine.
  const RfVariant* variant = nullptr;

  /// Normalization applied to each per-tree average.
  RfNorm norm = RfNorm::None;

  /// Include trivial (leaf) bipartitions. They cancel for fixed taxa, so
  /// the default matches the paper; enable for variable-taxa experiments.
  bool include_trivial = false;

  /// Store keys losslessly compressed (KeyEncoding::Sparse: SparseKeyCodec
  /// bytes) instead of as raw bitmasks — the paper's §IX memory-reduction
  /// future work. Exactness, variants, sharding and the batched query are
  /// unaffected; see bench_ablation_hash (A4c).
  bool compressed_keys = false;

  /// Expected number of unique bipartitions U. Pre-sizes the frequency
  /// store (split evenly across its shards), so a build is one table
  /// allocation per shard instead of a rehash cascade. 0 = grow on demand.
  /// A prior build's stats().unique_bipartitions is a good value (U
  /// saturates as r grows, §VII-C).
  std::size_t expected_unique = 0;
};

enum class IndexFormat;  // core/serialize.hpp

/// Build/query statistics surfaced to the bench harness.
struct BfhrfStats {
  std::size_t reference_trees = 0;
  std::size_t unique_bipartitions = 0;
  std::uint64_t total_bipartitions = 0;  ///< sumBFHR (unit weights)
  std::size_t hash_memory_bytes = 0;
};

class Bfhrf {
 public:
  friend Bfhrf load_bfhrf_file(const std::string& path, BfhrfOptions opts);
  friend void save_bfhrf_file(const Bfhrf& engine, const std::string& path,
                              IndexFormat format);

  /// `n_bits` is the taxon-universe width (TaxonSet::size()); all trees fed
  /// to this engine must be over a taxon set of exactly that width.
  explicit Bfhrf(std::size_t n_bits, BfhrfOptions opts = {});

  // --- Phase 1: build BFH_R -----------------------------------------------
  //
  // All three overloads share one code path on one pipeline; they differ in
  // the payload (a pointer into the span, a Newick record, a phylo2vec row)
  // and in what the producer queues (spans queue index ranges; streams
  // queue batches of Newick record text or rows that the workers extract
  // splits from).
  // Builds accumulate: a second build() adds to the first. An engine that
  // serves a loaded index is read-only: build() throws Error before it
  // reads any input. A build that throws otherwise (a malformed record, a
  // width mismatch) leaves the store partly filled at every thread count:
  // discard the engine.

  /// Build from an in-memory collection (parallel, zero-copy).
  void build(std::span<const phylo::Tree> reference);

  /// Build from a Newick file; at most max_resident_trees() trees
  /// resident. Its records are framed on the calling thread, and the
  /// workers extract each record's splits straight from its text
  /// (phylo::NewickSplitExtractor) against the source's namespace; no
  /// record becomes a Tree. That namespace must already be `n_bits` wide
  /// (InvalidArgument otherwise, before any record is read) and is never
  /// written. An unknown label throws InvalidArgument naming it, a
  /// repeated taxon ParseError naming it.
  void build(FileTreeSource& reference);

  /// Build from a phylo2vec row stream (e.g. a .p2v corpus): bipartitions
  /// are extracted directly from the vector form — no Tree is ever
  /// materialized on the hot path. The source's taxon width must equal the
  /// engine's universe width.
  void build(VectorSource& reference);

  // --- Phase 2: query ------------------------------------------------------

  /// Average RF of each query tree against R (order preserved).
  [[nodiscard]] std::vector<double> query(
      std::span<const phylo::Tree> queries) const;

  /// Streaming query over a Newick file; results are in stream order.
  /// Records are framed, extracted and checked as in
  /// build(FileTreeSource&).
  [[nodiscard]] std::vector<double> query(FileTreeSource& queries) const;

  /// Streaming query over phylo2vec rows (direct extraction, stream order).
  [[nodiscard]] std::vector<double> query(VectorSource& queries) const;

  /// Average RF of a single tree against R. Thread-safe after build;
  /// each calling thread reuses its own extraction scratch.
  [[nodiscard]] double query_one(const phylo::Tree& tree) const;

  /// Average RF of one Newick record against R, its splits taken straight
  /// from the text (phylo::NewickSplitExtractor) with its labels looked up
  /// in `taxa`, which is never written. Throws InvalidArgument for a null
  /// `taxa` or one that is not `n_bits` wide, before reading the record;
  /// then ParseError on malformed text or a repeated taxon, and
  /// InvalidArgument naming a label outside `taxa`. Thread-safe after
  /// build, like query_one.
  [[nodiscard]] double query_newick(std::string_view record,
                                    const phylo::TaxonSetPtr& taxa) const;

  // --- introspection --------------------------------------------------------

  /// The frequency store, read-only: a view over the build's tables (one
  /// shard when builds run inline, else one per worker rounded up to a
  /// power of two; see BfhrfOptions::threads), or over the mapped table
  /// of a loaded index. A build replaces it, so do not hold it across one.
  [[nodiscard]] const BfhIndexView& store() const noexcept { return view_; }
  [[nodiscard]] BfhrfStats stats() const;
  [[nodiscard]] const BfhrfOptions& options() const noexcept { return opts_; }

  /// Most trees (Newick records, or rows) a streamed build or query holds
  /// at once, counted in batches of up to 16: the bounded queue's batches,
  /// one in flight per worker and the one the producer is filling.
  [[nodiscard]] std::size_t max_resident_trees() const noexcept;

  /// Keys a build worker stages before flushing: each of its S shard
  /// buckets flushes into its shard once it holds kStageKeys / S keys.
  static constexpr std::size_t kStageKeys = 16384;

  /// Most keys a build stages at once, over all its workers: under
  /// kStageKeys each, plus the tree being routed. 0 when the build runs
  /// inline, straight into one table. A staged key is ⌈n/64⌉ words
  /// whatever the store's key encoding, plus its one-word fingerprint.
  [[nodiscard]] std::size_t max_staged_keys() const noexcept;

 private:
  /// Per-worker hot-loop scratch: extraction buffers plus the batched
  /// staging vectors. One per worker rank, or per thread for query_one and
  /// query_newick (thread_scratch); never shared across threads.
  struct WorkerScratch {
    phylo::BipartitionExtractor extractor;
    phylo::VectorBipartitionExtractor vec_extractor;  ///< phylo2vec rows
    phylo::NewickSplitExtractor newick;      ///< Newick record text
    phylo::BipartitionSet newick_splits;     ///< its output
    std::vector<std::uint32_t> freqs;        ///< frequency_many output
    std::vector<std::uint64_t> kept_keys;    ///< variant-filtered key arena
    std::vector<std::uint64_t> kept_fingerprints;  ///< aligned with keys
    std::vector<double> kept_weights;        ///< weights aligned with keys
  };

  /// One tree's kept splits as a contiguous key arena with the
  /// fingerprints its extractor folded: the extractor's own columns under
  /// classic RF (weights == nullptr: unit weights), or the
  /// variant-filtered copies in the scratch staging vectors.
  struct KeptSplits {
    const std::uint64_t* keys = nullptr;
    const std::uint64_t* fingerprints = nullptr;
    const double* weights = nullptr;
    std::size_t count = 0;

    /// The tree's kept weight, summed in split order.
    [[nodiscard]] double weight() const noexcept;
  };

  /// One shard's staged keys: a key arena and the keys' fingerprints.
  struct Bucket {
    std::vector<std::uint64_t> keys;
    std::vector<std::uint64_t> fingerprints;
  };

  /// One build worker's routing buckets, one per shard, and the keys they
  /// hold: now, and at most (the staged-bytes gauge). Workers never share
  /// a Staging.
  struct Staging {
    std::vector<Bucket> buckets;
    std::size_t keys = 0;
    std::size_t peak_keys = 0;
  };

  [[nodiscard]] KeyEncoding key_encoding() const noexcept {
    return opts_.compressed_keys ? KeyEncoding::Sparse : KeyEncoding::Raw;
  }

  /// One framed record of a FileTreeSource and the source's namespace:
  /// the payload of a streamed Newick build or query.
  struct NewickRecord {
    std::string_view text;
    const phylo::TaxonSet* taxa = nullptr;
  };

  /// This thread's scratch for query_one and query_newick, reused across
  /// calls (and engines) instead of built per call.
  [[nodiscard]] static WorkerScratch& thread_scratch();

  /// What every extractor is asked for. Classic RF skips the finalize
  /// sort; variants keep sorted arenas so a tree's weights always sum in
  /// the same order whichever ingest form produced it.
  [[nodiscard]] phylo::BipartitionOptions split_options() const noexcept {
    return {.include_trivial = opts_.include_trivial,
            .sorted = opts_.variant != nullptr};
  }

  /// The extract step of build_from/query_from: check the payload's taxon
  /// width, then run the matching per-worker extractor.
  const phylo::BipartitionSet& extract(const phylo::Tree& tree,
                                       WorkerScratch& scratch) const;
  const phylo::BipartitionSet& extract(const phylo::Tree* tree,
                                       WorkerScratch& scratch) const;
  const phylo::BipartitionSet& extract(std::span<const std::uint32_t> row,
                                       WorkerScratch& scratch) const;
  const phylo::BipartitionSet& extract(const NewickRecord& record,
                                       WorkerScratch& scratch) const;

  /// Apply the variant's keep/weight hooks to an extracted set.
  [[nodiscard]] KeptSplits kept_splits(const phylo::BipartitionSet& bips,
                                       WorkerScratch& scratch) const;

  /// Inline build: insert one tree's kept splits into the one-shard
  /// store's table through add_many. Returns the tree's kept weight.
  double insert_bipartitions(const phylo::BipartitionSet& bips,
                             FrequencyHash& table,
                             WorkerScratch& scratch) const;

  /// Build with workers: append every kept split to the bucket in
  /// `staging` of the shard its folded fingerprint picks, then flush each
  /// bucket that holds its share of kStageKeys into its shard of `tables`
  /// under that shard's mutex in `locks`. Buckets carry keys and their
  /// fingerprints, no weights: shards count occurrences only, and
  /// build_from folds sumBFHR from the returned per-tree kept weights.
  double route_bipartitions(const phylo::BipartitionSet& bips,
                            ShardedFrequencyHash& tables, Staging& staging,
                            std::vector<std::mutex>& locks,
                            WorkerScratch& scratch) const;

  /// The Algorithm-2 inner loop for one query tree: one batched, prefetched
  /// frequency_many through view_, fed the extractor's fingerprints.
  [[nodiscard]] double query_bipartitions(const phylo::BipartitionSet& bips,
                                          WorkerScratch& scratch) const;

  /// The one build path and the one query path. `schedule` feeds
  /// them the payload — a pointer into an in-memory span, a NewickRecord
  /// or a TreeVector row — through parallel::pipeline_run.
  template <typename Schedule>
  void build_from(Schedule schedule);
  template <typename Schedule>
  [[nodiscard]] std::vector<double> query_from(Schedule schedule) const;

  /// The engine over a loaded index (load_bfhrf_file): no table is
  /// allocated; the store, sumBFHR, reference count, key encoding and
  /// trivial-split convention all come from the file.
  Bfhrf(MappedIndex index, BfhrfOptions opts);

  /// Shard count the thread count resolves to (1 = unsharded single
  /// table, the inline build's store).
  [[nodiscard]] std::size_t effective_shards() const noexcept;

  /// Pipeline consumer count (0 = inline zero-sync loop; chosen when
  /// threads <= 1 or the host has one hardware thread).
  [[nodiscard]] std::size_t pipeline_workers() const noexcept;

  /// Remake view_ over the tables (table growth reallocates the memory it
  /// points into, so every build ends here) and publish the store's shape
  /// as obs gauges, every gauge on every call.
  void publish_store_metrics();

  [[nodiscard]] const RfVariant& variant() const noexcept {
    return opts_.variant != nullptr ? *opts_.variant : classic_rf();
  }

  std::size_t n_bits_;
  BfhrfOptions opts_;
  /// What the engine owns: the tables its builds fill, or the index file
  /// it serves (exactly one of the two is set).
  std::optional<ShardedFrequencyHash> tables_;
  std::optional<MappedIndex> mapped_;
  /// The one read-only store over either, read by every query, stat and
  /// gauge.
  BfhIndexView view_;
  /// sumBFHR: the stream-order fold of every build's per-tree kept
  /// weights, or a loaded index's header total.
  double total_weight_ = 0.0;
  std::size_t reference_trees_ = 0;
};

/// One-call convenience mirroring the paper's tool: average RF of every
/// tree in Q against the collection R.
[[nodiscard]] std::vector<double> bfhrf_average_rf(
    std::span<const phylo::Tree> queries,
    std::span<const phylo::Tree> reference, const BfhrfOptions& opts = {});

}  // namespace bfhrf::core
