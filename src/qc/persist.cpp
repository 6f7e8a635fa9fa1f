#include "qc/persist.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "core/bfhrf.hpp"
#include "core/serialize.hpp"
#include "core/sharded_hash.hpp"
#include "qc/harness.hpp"
#include "util/error.hpp"

namespace bfhrf::qc {
namespace {

using core::Bfhrf;
using core::BfhrfOptions;

/// A store's contents as a comparable value: sorted (key words, count)
/// pairs plus the scalar totals.
struct StoreImage {
  std::vector<std::pair<std::vector<std::uint64_t>, std::uint32_t>> keys;
  std::size_t unique = 0;
  std::uint64_t total = 0;
  double weight = 0.0;
};

StoreImage image_of(const core::BfhIndexView& store) {
  StoreImage img;
  img.unique = store.unique_count();
  img.total = store.total_count();
  img.weight = store.total_weight();
  img.keys.reserve(img.unique);
  store.for_each_key([&](util::ConstWordSpan key, std::uint32_t count) {
    img.keys.emplace_back(std::vector<std::uint64_t>(key.begin(), key.end()),
                          count);
  });
  std::sort(img.keys.begin(), img.keys.end());
  return img;
}

struct Context {
  const PersistOracleOptions& opts;
  PersistOracleReport& report;

  void fail(const std::string& what) {
    char seed[32];
    std::snprintf(seed, sizeof seed, "0x%llX",
                  static_cast<unsigned long long>(opts.seed));
    report.failures.push_back("persist: " + what +
                              " (replay with --seed=" + seed + ")");
  }

  bool check(bool ok, const std::string& what) {
    ++report.checks;
    if (!ok) {
      fail(what);
    }
    return ok;
  }
};

void compare_stores(Context& ctx, const core::BfhIndexView& got,
                    const StoreImage& want, const std::string& label) {
  const StoreImage img = image_of(got);
  ctx.check(img.unique == want.unique,
            label + ": unique_count " + std::to_string(img.unique) +
                " != " + std::to_string(want.unique));
  ctx.check(img.total == want.total,
            label + ": total_count " + std::to_string(img.total) +
                " != " + std::to_string(want.total));
  ctx.check(img.weight == want.weight, label + ": total_weight diverged");
  ctx.check(img.keys == want.keys, label + ": (key, count) multiset differs");
}

void compare_queries(Context& ctx, std::span<const double> got,
                     std::span<const double> want, const std::string& label) {
  if (!ctx.check(got.size() == want.size(), label + ": query count differs")) {
    return;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Bit-identical, not approximately equal: every path ends in the same
    // integer-valued classic-RF accumulation.
    if (!ctx.check(got[i] == want[i],
                   label + ": query " + std::to_string(i) + " avgRF " +
                       std::to_string(got[i]) + " != " +
                       std::to_string(want[i]))) {
      return;
    }
  }
}

class ScratchFile {
 public:
  ScratchFile(const std::string& dir, std::uint64_t seed, const char* tag) {
    const std::filesystem::path base =
        dir.empty() ? std::filesystem::temp_directory_path()
                    : std::filesystem::path(dir);
    char name[96];
    std::snprintf(name, sizeof name, "bfhrf_persist_%llx_%s.bfi",
                  static_cast<unsigned long long>(seed), tag);
    path_ = (base / name).string();
  }
  ~ScratchFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Save `engine`, require the inline build's bytes, load the file at the
/// thread count the build ran at, and compare.
void round_trip(Context& ctx, const Bfhrf& engine,
                std::span<const phylo::Tree> queries, const StoreImage& want,
                std::span<const double> want_rf,
                const std::vector<char>& want_file, const std::string& label) {
  const ScratchFile file(ctx.opts.scratch_dir, ctx.opts.seed, "map");
  core::save_bfhrf_file(engine, file.path());
  ctx.check(file_bytes(file.path()) == want_file,
            label + ": saved file differs from the inline build's");
  const Bfhrf loaded = core::load_bfhrf_file(
      file.path(), {.threads = engine.options().threads});
  ++ctx.report.round_trips;
  const std::string mapped = label + " mapped";
  ctx.check(loaded.store().shard_count() == 1,
            mapped + ": loaded as more than one table");
  // Served zero-copy: the store's bytes are the file itself, not tables
  // rebuilt from it.
  ctx.check(loaded.store().memory_bytes() ==
                std::filesystem::file_size(file.path()),
            mapped + ": load did not serve zero-copy (store bytes are not "
                     "the file's)");
  compare_stores(ctx, loaded.store(), want, mapped);
  compare_queries(ctx, loaded.query(queries), want_rf, mapped);
}

}  // namespace

PersistOracleReport check_persist_equivalence(
    const PersistOracleOptions& opts) {
  PersistOracleReport report;
  report.seed = opts.seed;
  Context ctx{opts, report};

  HarnessOptions wl;
  wl.seed = opts.seed;
  wl.n = opts.n;
  wl.r = opts.r;
  wl.q = opts.q;
  wl.moves = opts.moves;
  const Workload workload = make_workload(wl);
  const std::span<const phylo::Tree> reference = workload.reference;
  const std::span<const phylo::Tree> queries = workload.queries;
  const std::size_t n_bits = workload.taxa->size();

  // --- baseline: raw keys, single table, single-threaded -----------------
  BfhrfOptions base_opts;
  base_opts.include_trivial = opts.include_trivial;
  Bfhrf baseline(n_bits, base_opts);
  baseline.build(reference);
  const StoreImage want = image_of(baseline.store());
  const std::vector<double> want_rf = baseline.query(queries);

  // --- every thread count's store shape in both key encodings ------------
  // A build with workers shards its store, bit_ceil(threads) ways; an
  // inline one (one thread, or a one-core host) fills one table. Each is
  // compared bit for bit and round-tripped, and each saves the inline
  // build's file byte for byte.
  const bool multi_core = std::thread::hardware_concurrency() > 1;
  for (const bool compressed : {false, true}) {
    Bfhrf inline_engine(n_bits, {.include_trivial = opts.include_trivial,
                                 .compressed_keys = compressed});
    inline_engine.build(reference);
    const ScratchFile inline_file(opts.scratch_dir, opts.seed, "inline");
    core::save_bfhrf_file(inline_engine, inline_file.path());
    const std::vector<char> want_file = file_bytes(inline_file.path());
    for (const std::size_t requested : opts.threads) {
      BfhrfOptions shape_opts;
      shape_opts.compressed_keys = compressed;
      shape_opts.threads = requested;
      shape_opts.include_trivial = opts.include_trivial;
      Bfhrf engine(n_bits, shape_opts);
      engine.build(reference);
      const std::size_t threads = engine.options().threads;
      const std::size_t shards = engine.store().shard_count();
      const std::string label = std::string(compressed ? "sparse" : "raw") +
                                " threads=" + std::to_string(threads) +
                                " shards=" + std::to_string(shards);
      const std::size_t want_shards =
          threads > 1 && multi_core
              ? std::bit_ceil(std::min<std::size_t>(threads, 64))
              : 1;
      ctx.check(shards == want_shards,
                label + ": expected " + std::to_string(want_shards) +
                    " shards");
      compare_stores(ctx, engine.store(), want, label);
      compare_queries(ctx, engine.query(queries), want_rf, label);
      round_trip(ctx, engine, queries, want, want_rf, want_file, label);
    }
  }

  return report;
}

std::string PersistOracleReport::summary() const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "persist oracle: %zu checks, %zu round trips, %zu failures "
                "(seed 0x%llX)",
                checks, round_trips, failures.size(),
                static_cast<unsigned long long>(seed));
  return buf;
}

}  // namespace bfhrf::qc
