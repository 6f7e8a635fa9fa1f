#include "core/bfhrf.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "parallel/pipeline.hpp"
#include "parallel/thread_pool.hpp"
#include "util/error.hpp"

namespace bfhrf::core {
namespace {

// Engine-phase metrics (docs/OBSERVABILITY.md): phase-1 build wall time and
// tree count, phase-2 query throughput inputs, and the post-build store
// shape (U, resident bytes).
const obs::Counter g_build_trees = obs::counter("bfhrf.build.trees");
const obs::Counter g_query_trees = obs::counter("bfhrf.query.trees");
const obs::Counter g_query_bips = obs::counter("bfhrf.query.bipartitions");
const obs::Gauge g_unique = obs::gauge("bfhrf.unique_bipartitions");
const obs::Gauge g_resident = obs::gauge("bfhrf.hash.resident_bytes");
// Table-shape gauges, written on every publish for every store shape:
// load factor and slot capacity over all shards, and the probe-length
// distribution over resident keys (mean/max control groups walked per
// successful lookup; 0 = not scanned, see publish_store_metrics).
const obs::Gauge g_load_factor = obs::gauge("bfhrf.hash.load_factor");
const obs::Gauge g_capacity = obs::gauge("bfhrf.hash.capacity_slots");
const obs::Gauge g_mean_probe = obs::gauge("bfhrf.hash.mean_probe_groups");
const obs::Gauge g_max_probe = obs::gauge("bfhrf.hash.max_probe_groups");
const obs::Histogram g_build_seconds = obs::histogram("bfhrf.build.seconds");
const obs::Histogram g_query_seconds = obs::histogram("bfhrf.query.seconds");

// Batched-query path (FrequencyHash::frequency_many): one batch per query
// tree, plus the split count resolved through the prefetch pipeline and the
// subset that took the single-word raw-key fast path (words_per_key == 1,
// e.g. the paper's Avian n=48 case).
const obs::Counter g_prefetch_batches =
    obs::counter("bfhrf.query.prefetch.batches");
const obs::Counter g_prefetch_bips =
    obs::counter("bfhrf.query.prefetch.bipartitions");
const obs::Counter g_prefetch_fast_path =
    obs::counter("bfhrf.query.prefetch.fast_path_keys");

// Sharded-store metrics: shard count and balance (largest shard / mean,
// 1.0 = perfect) of the store last built or loaded, the keys flushed from
// staging buckets into shards and the flushes (add_many calls) that moved
// them, and the most key bytes one worker staged at once in the last
// build.
const obs::Gauge g_shard_count = obs::gauge("bfhrf.build.shard.count");
const obs::Gauge g_shard_skew = obs::gauge("bfhrf.build.shard.skew");
const obs::Counter g_shard_keys = obs::counter("bfhrf.build.shard.keys");
const obs::Counter g_shard_chunks = obs::counter("bfhrf.build.shard.chunks");
const obs::Gauge g_staged_bytes =
    obs::gauge("bfhrf.build.shard.staged_bytes_max");

/// Per-lane (stream index, value) records. Each worker appends to its own
/// lane; in_stream_order() scatters them once the pipeline has joined, so
/// no lock or shared resize sits on the hot path.
using LaneValues = std::vector<std::vector<std::pair<std::size_t, double>>>;

std::vector<double> in_stream_order(const LaneValues& lanes, std::size_t n) {
  std::vector<double> out(n, 0.0);
  for (const auto& lane : lanes) {
    for (const auto& [index, value] : lane) {
      out[index] = value;
    }
  }
  return out;
}

/// Bounded-queue capacity of the ingest pipeline, in queue items (batches
/// of up to kBatchItems stream items, or span index ranges): two batches
/// of work per worker keep every worker fed while bounding residency.
std::size_t queue_capacity(std::size_t workers) { return 2 * workers; }

/// Stream items per queue item. One queue hop per tree cost more than a
/// small tree's own work: in-memory queries at n=48 and n=144 ran 1.6-2.3x
/// slower with 4 workers on a 4-core host, and a streamed 4,000-tree query
/// woke a consumer about 4,040 times.
constexpr std::size_t kBatchItems = 16;

/// A Newick text batch also closes once it holds this many bytes, so wide
/// trees do not multiply the text a stream keeps resident.
constexpr std::size_t kBatchTextBytes = 64 * 1024;

// The two schedulers of build_from/query_from, both on pipeline_run. A
// scheduler is called as schedule(workers, consume): the calling thread
// produces and `workers` threads call consume(rank, index, item) for every
// item. It returns the item count once every worker has joined.

/// Consecutive stream items queued as one; `first` is the stream index of
/// items[0].
template <typename Item>
struct Batch {
  std::size_t first = 0;
  std::vector<Item> items;
};

/// Text bytes an item adds to its batch: Newick records count, vector
/// rows do not.
std::size_t text_bytes(const std::string& record) { return record.size(); }
template <typename Item>
std::size_t text_bytes(const Item& /*item*/) {
  return 0;
}

/// Streams: the producer pulls items with next(item) and queues them in
/// batches of up to kBatchItems (text batches also close at
/// kBatchTextBytes). An item is a Newick record (std::string) or a
/// TreeVector row; the workers consume payload(item). Records are only
/// framed on the producer, so all the per-record text work runs on the
/// workers instead of on the one producer thread.
template <typename Item, typename Next, typename Payload = std::identity>
auto stream_scheduler(Next next, Payload payload = {}) {
  return [next = std::move(next), payload](std::size_t workers,
                                          const auto& consume) mutable {
    std::size_t seen = 0;
    parallel::pipeline_run<Batch<Item>>(
        workers, queue_capacity(workers),
        [&](const parallel::PipelineEmit<Batch<Item>>& emit) {
          bool more = true;
          while (more) {
            Batch<Item> batch{.first = seen, .items = {}};
            batch.items.reserve(kBatchItems);
            std::size_t bytes = 0;
            while (batch.items.size() < kBatchItems &&
                   bytes < kBatchTextBytes) {
              Item& item = batch.items.emplace_back();
              if (!next(item)) {
                batch.items.pop_back();
                more = false;
                break;
              }
              bytes += text_bytes(item);
            }
            seen += batch.items.size();
            if (batch.items.empty() || !emit(std::move(batch))) {
              break;  // end of stream, or the pipeline aborted (the
                      // failure rethrows after join)
            }
          }
        },
        [&](std::size_t rank, Batch<Item>& batch) {
          for (std::size_t i = 0; i < batch.items.size(); ++i) {
            consume(rank, batch.first + i, payload(batch.items[i]));
          }
        });
    return seen;
  };
}

/// In-memory spans: the items are pointers into the span (no tree is
/// copied), queued as index ranges of kBatchItems trees.
auto span_scheduler(std::span<const phylo::Tree> trees) {
  return [trees](std::size_t workers, const auto& consume) {
    struct Range {
      std::size_t begin = 0;
      std::size_t end = 0;
    };
    parallel::pipeline_run<Range>(
        workers, queue_capacity(workers),
        [&](const parallel::PipelineEmit<Range>& emit) {
          for (std::size_t b = 0; b < trees.size(); b += kBatchItems) {
            if (!emit({b, std::min(trees.size(), b + kBatchItems)})) {
              break;  // pipeline aborted; the failure rethrows after join
            }
          }
        },
        [&](std::size_t rank, Range& range) {
          for (std::size_t i = range.begin; i < range.end; ++i) {
            consume(rank, i, &trees[i]);
          }
        });
    return trees.size();
  };
}

/// Insert a staging bucket's keys into `shard` through add_many, with the
/// fingerprints staged beside them, and empty the bucket, keeping its
/// capacity for the next fill. Returns the number of keys flushed.
std::size_t flush_bucket(FrequencyHash& shard,
                         std::vector<std::uint64_t>& keys_arena,
                         std::vector<std::uint64_t>& fingerprints) {
  const std::size_t keys = fingerprints.size();
  shard.add_many(keys_arena.data(), keys, nullptr, fingerprints.data());
  keys_arena.clear();
  fingerprints.clear();
  g_shard_keys.inc(keys);
  g_shard_chunks.inc();
  return keys;
}

void check_width(const VectorSource& source, std::size_t n_bits) {
  if (source.n_taxa() != n_bits) {
    throw InvalidArgument("Bfhrf: vector source universe width mismatch");
  }
}

/// Newick text is read against a namespace as it stands, which nothing
/// writes, so that namespace must already span the engine's universe.
void check_namespace(const phylo::TaxonSetPtr& taxa, std::size_t n_bits) {
  if (!taxa || taxa->size() != n_bits) {
    throw InvalidArgument(
        "Bfhrf: Newick namespace has " +
        (taxa ? std::to_string(taxa->size()) + " taxa" : "no taxon set") +
        " but the engine's universe is " + std::to_string(n_bits) + " wide");
  }
}

/// A Newick file streams as record text, each record reaching the workers
/// as a `Record` (Bfhrf::NewickRecord): its text and the source's
/// namespace.
template <typename Record>
auto record_scheduler(FileTreeSource& file, std::size_t n_bits) {
  check_namespace(file.taxa(), n_bits);
  const phylo::TaxonSet* taxa = file.taxa().get();
  return stream_scheduler<std::string>(
      [&file](std::string& out) { return file.next_record(out); },
      [taxa](const std::string& text) { return Record{text, taxa}; });
}

}  // namespace

Bfhrf::Bfhrf(std::size_t n_bits, BfhrfOptions opts)
    : n_bits_(n_bits), opts_(opts) {
  if (n_bits_ == 0) {
    throw InvalidArgument("Bfhrf: empty taxon universe");
  }
  opts_.threads = parallel::effective_threads(opts_.threads);
  tables_.emplace(n_bits_, effective_shards(), opts_.expected_unique,
                  key_encoding());
  view_ = BfhIndexView(*tables_, total_weight_);
}

Bfhrf::Bfhrf(MappedIndex index, BfhrfOptions opts)
    : n_bits_(static_cast<std::size_t>(index.header().n_bits)), opts_(opts) {
  const MappedHeader& h = index.header();
  opts_.threads = parallel::effective_threads(opts_.threads);
  opts_.compressed_keys = index.encoding() == KeyEncoding::Sparse;
  opts_.include_trivial = (h.flags & kMappedFlagIncludeTrivial) != 0;
  total_weight_ = h.total_weight;
  reference_trees_ = static_cast<std::size_t>(h.reference_trees);
  // The view points into the mapping, which stays put when the index
  // moves into place (and when the engine moves).
  mapped_.emplace(std::move(index));
  view_ = mapped_->view();
  publish_store_metrics();
}

std::size_t Bfhrf::effective_shards() const noexcept {
  // One table when the build runs inline; otherwise a shard per worker,
  // rounded up to a power of two and capped at 64, so a store is sharded
  // exactly when its build has workers.
  const std::size_t workers = pipeline_workers();
  return workers == 0 ? 1
                      : std::bit_ceil(std::min<std::size_t>(workers, 64));
}

std::size_t Bfhrf::pipeline_workers() const noexcept {
  // The calling thread produces; `workers` consumers drain the queue. With
  // threads <= 1 — or on a single-hardware-thread host, where produce/
  // consume overlap is physically impossible and the queue would only add
  // synchronization — the pipeline degenerates to an inline zero-sync
  // loop (results are identical either way).
  if (opts_.threads <= 1 || std::thread::hardware_concurrency() <= 1) {
    return 0;
  }
  return opts_.threads;
}

std::size_t Bfhrf::max_resident_trees() const noexcept {
  const std::size_t workers = pipeline_workers();
  const std::size_t batches =
      workers == 0 ? 1 : queue_capacity(workers) + workers + 1;
  return batches * kBatchItems;
}

std::size_t Bfhrf::max_staged_keys() const noexcept {
  // A tree keeps at most n-3 splits, or 2n-3 with the trivial ones.
  const std::size_t per_tree = opts_.include_trivial ? 2 * n_bits_ : n_bits_;
  return pipeline_workers() * (kStageKeys + per_tree);
}

Bfhrf::WorkerScratch& Bfhrf::thread_scratch() {
  static thread_local WorkerScratch scratch;
  return scratch;
}

const phylo::BipartitionSet& Bfhrf::extract(const phylo::Tree& tree,
                                            WorkerScratch& scratch) const {
  if (!tree.taxa() || tree.taxa()->size() != n_bits_) {
    throw InvalidArgument("Bfhrf: tree taxon universe width mismatch");
  }
  return scratch.extractor.extract(tree, split_options());
}

const phylo::BipartitionSet& Bfhrf::extract(const phylo::Tree* tree,
                                            WorkerScratch& scratch) const {
  return extract(*tree, scratch);
}

const phylo::BipartitionSet& Bfhrf::extract(
    std::span<const std::uint32_t> row, WorkerScratch& scratch) const {
  if (row.size() + 1 != n_bits_) {
    throw InvalidArgument("Bfhrf: vector row universe width mismatch");
  }
  return scratch.vec_extractor.extract(row, split_options());
}

const phylo::BipartitionSet& Bfhrf::extract(const NewickRecord& record,
                                            WorkerScratch& scratch) const {
  // record_scheduler checked the namespace's width up front.
  scratch.newick.extract_into(record.text, *record.taxa, split_options(),
                              scratch.newick_splits);
  return scratch.newick_splits;
}

Bfhrf::KeptSplits Bfhrf::kept_splits(const phylo::BipartitionSet& bips,
                                     WorkerScratch& scratch) const {
  if (opts_.variant == nullptr) {
    // Classic RF keeps every split at unit weight: the extractor's arena
    // and fingerprint column go through as is — no per-split popcount or
    // virtual keep/weight.
    return {bips.arena_view().data(), bips.fingerprints().data(), nullptr,
            bips.size()};
  }
  const RfVariant& v = *opts_.variant;
  scratch.kept_keys.clear();
  scratch.kept_fingerprints.clear();
  scratch.kept_weights.clear();
  const std::span<const std::uint64_t> fps = bips.fingerprints();
  for (std::size_t i = 0; i < bips.size(); ++i) {
    const util::ConstWordSpan words = bips[i];
    const BipartitionRef ref{words, n_bits_, util::popcount_words(words)};
    if (!v.keep(ref)) {
      continue;
    }
    scratch.kept_keys.insert(scratch.kept_keys.end(), words.begin(),
                             words.end());
    scratch.kept_fingerprints.push_back(fps[i]);
    scratch.kept_weights.push_back(v.weight(ref));
  }
  return {scratch.kept_keys.data(), scratch.kept_fingerprints.data(),
          scratch.kept_weights.data(), scratch.kept_weights.size()};
}

double Bfhrf::KeptSplits::weight() const noexcept {
  if (weights == nullptr) {
    return static_cast<double>(count);
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    sum += weights[i];
  }
  return sum;
}

double Bfhrf::insert_bipartitions(const phylo::BipartitionSet& bips,
                                  FrequencyHash& table,
                                  WorkerScratch& scratch) const {
  const KeptSplits kept = kept_splits(bips, scratch);
  table.add_many(kept.keys, kept.count, kept.weights, kept.fingerprints);
  return kept.weight();
}

double Bfhrf::route_bipartitions(const phylo::BipartitionSet& bips,
                                 ShardedFrequencyHash& tables,
                                 Staging& staging,
                                 std::vector<std::mutex>& locks,
                                 WorkerScratch& scratch) const {
  const KeptSplits kept = kept_splits(bips, scratch);
  const std::size_t wp = util::words_for_bits(n_bits_);
  const std::uint32_t bits = tables.shard_bits();
  for (std::size_t k = 0; k < kept.count; ++k) {
    const std::uint64_t* key = kept.keys + k * wp;
    const std::uint64_t fp = kept.fingerprints[k];
    Bucket& bucket = staging.buckets[shard_of(fp, bits)];
    bucket.keys.insert(bucket.keys.end(), key, key + wp);
    bucket.fingerprints.push_back(fp);
  }
  staging.keys += kept.count;
  staging.peak_keys = std::max(staging.peak_keys, staging.keys);
  // Every bucket held less than its share of kStageKeys before this tree,
  // so the worker never stages more than kStageKeys keys plus one tree.
  const std::size_t full = kStageKeys / staging.buckets.size();
  for (std::size_t s = 0; s < staging.buckets.size(); ++s) {
    Bucket& bucket = staging.buckets[s];
    if (bucket.fingerprints.size() >= full) {
      const std::lock_guard lock(locks[s]);
      staging.keys -=
          flush_bucket(tables.shard(s), bucket.keys, bucket.fingerprints);
    }
  }
  return kept.weight();
}

template <typename Schedule>
void Bfhrf::build_from(Schedule schedule) {
  if (!tables_) {
    throw Error(
        "Bfhrf::build: the engine serves a loaded index, which is "
        "read-only (rebuild from the reference trees to change it)");
  }
  ShardedFrequencyHash& tables = *tables_;
  const obs::TraceSpan span("bfhrf.build");
  const obs::ScopedTimer timer(g_build_seconds);
  const std::size_t workers = pipeline_workers();
  const std::size_t lanes = std::max<std::size_t>(1, workers);
  const std::size_t wp = util::words_for_bits(n_bits_);

  // Where a worker's keys go. One shard (the inline build): straight into
  // its table. Several (a build with workers): into the worker's own
  // per-shard buckets, each flushed into its shard under that shard's lock
  // once it holds its share of kStageKeys; the residue drains after the
  // pipeline joins. Every key is inserted exactly once, with no merge.
  const bool route = tables.shard_count() > 1;
  const std::size_t shards = route ? tables.shard_count() : 0;
  std::vector<std::mutex> locks(shards);
  std::vector<Staging> staging(route ? lanes : 0);
  for (Staging& st : staging) {
    st.buckets.resize(shards);
    for (Bucket& bucket : st.buckets) {
      bucket.keys.reserve((kStageKeys / shards + n_bits_) * wp);
      bucket.fingerprints.reserve(kStageKeys / shards + n_bits_);
    }
  }
  std::vector<WorkerScratch> scratch(lanes);
  LaneValues tree_weights(lanes);

  const std::size_t seen = schedule(
      workers, [&](std::size_t rank, std::size_t index, const auto& item) {
        const phylo::BipartitionSet& bips = extract(item, scratch[rank]);
        const double weight =
            route ? route_bipartitions(bips, tables, staging[rank], locks,
                                       scratch[rank])
                  : insert_bipartitions(bips, tables.shard(0), scratch[rank]);
        tree_weights[rank].emplace_back(index, weight);
      });

  // The residue, one task per shard (none after an inline build); the
  // workers have joined, so no lock.
  parallel::parallel_for(
      0, shards, opts_.threads,
      [&](std::size_t s) {
        for (Staging& st : staging) {
          Bucket& bucket = st.buckets[s];
          if (!bucket.fingerprints.empty()) {
            flush_bucket(tables.shard(s), bucket.keys, bucket.fingerprints);
          }
        }
      },
      /*grain=*/1);
  std::size_t peak_keys = 0;
  for (const Staging& st : staging) {
    peak_keys = std::max(peak_keys, st.peak_keys);
  }
  g_staged_bytes.set(
      static_cast<double>(peak_keys * wp * sizeof(std::uint64_t)));

  // sumBFHR as one stream-order fold of per-tree kept weights: the float
  // total is then the same for every thread count, schedule and store
  // shape (classic weights are integers, exact in any order).
  for (const double w : in_stream_order(tree_weights, seen)) {
    total_weight_ += w;
  }
  reference_trees_ += seen;
  g_build_trees.inc(seen);
  publish_store_metrics();
}

void Bfhrf::build(std::span<const phylo::Tree> reference) {
  build_from(span_scheduler(reference));
}

void Bfhrf::build(FileTreeSource& reference) {
  build_from(record_scheduler<NewickRecord>(reference, n_bits_));
}

void Bfhrf::build(VectorSource& reference) {
  check_width(reference, n_bits_);
  build_from(stream_scheduler<phylo::TreeVector>(
      [&](phylo::TreeVector& out) { return reference.next(out); }));
}

double Bfhrf::query_bipartitions(const phylo::BipartitionSet& bips,
                                 WorkerScratch& scratch) const {
  if (reference_trees_ == 0) {
    throw InvalidArgument("Bfhrf::query before build");
  }
  const auto r = static_cast<double>(reference_trees_);
  const std::size_t wp = util::words_for_bits(n_bits_);
  const KeptSplits kept = kept_splits(bips, scratch);
  scratch.freqs.resize(kept.count);
  view_.frequency_many(kept.keys, kept.count, scratch.freqs.data(),
                       kept.fingerprints);
  g_prefetch_batches.inc();
  g_prefetch_bips.inc(kept.count);
  if (wp == 1 && !opts_.compressed_keys) {
    g_prefetch_fast_path.inc(kept.count);
  }
  g_query_bips.inc(kept.count);

  // Algorithm 2's two accumulators, generalized to weights.
  double rf_left = total_weight_;  // sumBFHR
  double rf_right = 0.0;
  double query_weight_sum = 0.0;            // Σ w(b') for MaxScaled
  if (kept.weights == nullptr) {
    // Classic RF: unit weights make every term integer-valued, so summing
    // the frequencies first is bit-identical to the per-split form.
    double sum_freq = 0.0;
    for (std::size_t i = 0; i < kept.count; ++i) {
      sum_freq += static_cast<double>(scratch.freqs[i]);
    }
    rf_left -= sum_freq;
    rf_right = static_cast<double>(kept.count) * r - sum_freq;
    query_weight_sum = static_cast<double>(kept.count);
  } else {
    for (std::size_t i = 0; i < kept.count; ++i) {
      const double w = kept.weights[i];
      const double freq = static_cast<double>(scratch.freqs[i]);
      rf_left -= w * freq;
      rf_right += w * (r - freq);
      query_weight_sum += w;
    }
  }
  const double avg = (rf_left + rf_right) / r;
  const double max_avg = (total_weight_ / r) + query_weight_sum;
  return apply_norm(avg, max_avg, opts_.norm);
}

double Bfhrf::query_one(const phylo::Tree& tree) const {
  WorkerScratch& scratch = thread_scratch();
  return query_bipartitions(extract(tree, scratch), scratch);
}

double Bfhrf::query_newick(std::string_view record,
                           const phylo::TaxonSetPtr& taxa) const {
  check_namespace(taxa, n_bits_);
  WorkerScratch& scratch = thread_scratch();
  scratch.newick.extract_into(record, *taxa, split_options(),
                              scratch.newick_splits);
  return query_bipartitions(scratch.newick_splits, scratch);
}

template <typename Schedule>
std::vector<double> Bfhrf::query_from(Schedule schedule) const {
  const obs::TraceSpan span("bfhrf.query");
  const obs::ScopedTimer timer(g_query_seconds);
  const std::size_t workers = pipeline_workers();
  const std::size_t lanes = std::max<std::size_t>(1, workers);
  std::vector<WorkerScratch> scratch(lanes);
  LaneValues results(lanes);
  const std::size_t seen = schedule(
      workers, [&](std::size_t rank, std::size_t index, const auto& item) {
        results[rank].emplace_back(
            index,
            query_bipartitions(extract(item, scratch[rank]), scratch[rank]));
      });
  g_query_trees.inc(seen);
  return in_stream_order(results, seen);
}

std::vector<double> Bfhrf::query(
    std::span<const phylo::Tree> queries) const {
  return query_from(span_scheduler(queries));
}

std::vector<double> Bfhrf::query(FileTreeSource& queries) const {
  return query_from(record_scheduler<NewickRecord>(queries, n_bits_));
}

std::vector<double> Bfhrf::query(VectorSource& queries) const {
  check_width(queries, n_bits_);
  return query_from(stream_scheduler<phylo::TreeVector>(
      [&](phylo::TreeVector& out) { return queries.next(out); }));
}

void Bfhrf::publish_store_metrics() {
  if (tables_) {
    view_ = BfhIndexView(*tables_, total_weight_);
  }
  g_unique.set(static_cast<double>(view_.unique_count()));
  g_resident.set(static_cast<double>(view_.memory_bytes()));
  g_shard_count.set(static_cast<double>(view_.shard_count()));
  g_shard_skew.set(view_.shard_skew());
  const std::size_t slots = view_.capacity_slots();
  g_capacity.set(static_cast<double>(slots));
  g_load_factor.set(static_cast<double>(view_.unique_count()) /
                    static_cast<double>(slots));
  // Probe lengths come from an O(U) scan (decoding sparse keys), run only
  // on an inline build's single table: over shards it would slow every
  // multi-threaded build, and over a mapped index it would page in the key
  // arenas. Every other shape publishes 0, "not scanned". Publish runs once
  // per build or load, and Gauge::set takes the registry lock, so none of
  // these are updated per lookup.
  FrequencyHash::ProbeStats probes;
  if (tables_ && tables_->shard_count() == 1) {
    probes = tables_->shard(0).probe_stats();
  }
  g_mean_probe.set(probes.mean_groups);
  g_max_probe.set(static_cast<double>(probes.max_groups));
}

BfhrfStats Bfhrf::stats() const {
  return BfhrfStats{
      .reference_trees = reference_trees_,
      .unique_bipartitions = view_.unique_count(),
      .total_bipartitions = view_.total_count(),
      .hash_memory_bytes = view_.memory_bytes(),
  };
}

std::vector<double> bfhrf_average_rf(std::span<const phylo::Tree> queries,
                                     std::span<const phylo::Tree> reference,
                                     const BfhrfOptions& opts) {
  if (reference.empty()) {
    throw InvalidArgument("bfhrf_average_rf: empty reference collection");
  }
  const auto& taxa = reference.front().taxa();
  Bfhrf engine(taxa->size(), opts);
  engine.build(reference);
  return engine.query(queries);
}

}  // namespace bfhrf::core
