// Ablation A8: scalar linear probing vs SIMD group probing (PR5).
//
// The FrequencyHash probe loop was rewritten from one-slot-at-a-time linear
// probing over 16-byte slots (stored fingerprint) to Swiss-table-style
// group probing: a separate control-byte directory holds a 7-bit tag per
// slot, and a probe inspects 16 tags at once (SSE2/NEON, or a portable
// SWAR fallback) before touching any slot or key memory. Slots shrink to
// 8 bytes because the fingerprint moved into the control byte + rehash
// recomputation (DESIGN.md §5).
//
// This bench isolates that change on the BFHRF build/query workload: the
// per-tree bipartition arenas of an insect-like collection (n = 144, three
// words per key) are fed through add_many / frequency_many exactly as
// core::Bfhrf feeds them. Three ablations:
//
//   scalar      — bench-local replica of the pre-PR5 table (16-byte slots,
//                 fingerprint fast-path, slot-at-a-time probing, same
//                 3-stage prefetch pipeline).
//   group+swar  — the new table with vector ISE disabled (forced SWAR).
//   group+simd  — the new table at the host's native dispatch level
//                 (SSE2 group matching; AVX2 bitset kernels).
//
// All three fingerprint each key with util::fingerprint from its words
// (the group tables through the fingerprint-less add_many/frequency_many
// calls), so the ablation compares probe layouts only.
//
// Medians land in BENCH_PR5.json via record_baseline for
// scripts/bench_compare.py to gate on.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/frequency_hash.hpp"
#include "obs/metrics.hpp"
#include "phylo/bipartition.hpp"
#include "sim/datasets.hpp"
#include "util/bitset.hpp"
#include "util/hash.hpp"
#include "util/simd.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace bfhrf::bench {
namespace {

// Sized so that at Small the SCALAR table's working set (16-byte slots +
// key arena) spills the 2 MiB L2 this host carries — the regime the
// paper's r >= thousands collections live in, and the one group probing
// is designed for. Smoke stays cache-resident on purpose: it shows the
// (adverse) in-cache contrast alongside the memory-bound headline.
std::size_t r_trees() {
  switch (scale()) {
    case Scale::Smoke:
      return 48;
    case Scale::Small:
      return 3200;
    case Scale::Paper:
      return 12800;
  }
  return 0;
}

constexpr std::size_t kReps = 9;  // odd: the median is a real sample

// Pre-PR5 probe accounting, replicated faithfully in the scalar baseline:
// one thread-local counter flush per probe walk. (The shipped table now
// accumulates these locally and flushes once per batch — that bookkeeping
// change is part of what this ablation measures.)
const obs::Counter g_scalar_probes =
    obs::counter("core.frequency_hash.probes");
const obs::Counter g_scalar_collisions =
    obs::counter("core.frequency_hash.collisions");

void record_scalar_probe(std::size_t steps) noexcept {
  g_scalar_probes.inc(steps);
  if (steps > 1) {
    g_scalar_collisions.inc(steps - 1);
  }
}

/// The extracted per-tree bipartition arenas — the exact stream BFHRF's
/// build/query loops feed the hash. R = first half of the collection,
/// Q = the whole collection, so queries mix resident keys with novel
/// splits (the empty-group early exit) the way Bfhrf::query does.
struct Workload {
  std::size_t n_bits = 0;
  std::vector<phylo::BipartitionSet> sets;
  std::size_t build_sets = 0;
  std::size_t build_keys = 0;
  std::size_t query_keys = 0;
  std::size_t unique = 0;  ///< distinct splits in R (pre-sizing hint)
  std::size_t max_set = 0;
};

const Workload& workload() {
  static const Workload w = [] {
    const sim::Dataset ds = sim::generate(sim::insect_like(r_trees()));
    Workload out;
    out.n_bits = ds.spec.n_taxa;
    phylo::BipartitionExtractor extractor;
    phylo::BipartitionOptions opts;
    opts.sorted = false;  // the hash path's unsorted fast extraction
    out.sets.reserve(ds.trees.size());
    for (const auto& tree : ds.trees) {
      phylo::BipartitionSet set;
      extractor.extract_into(tree, opts, set);
      out.sets.push_back(std::move(set));
    }
    out.build_sets = (out.sets.size() + 1) / 2;
    for (std::size_t i = 0; i < out.sets.size(); ++i) {
      if (i < out.build_sets) {
        out.build_keys += out.sets[i].size();
      }
      out.query_keys += out.sets[i].size();
      out.max_set = std::max(out.max_set, out.sets[i].size());
    }
    // Count R's distinct splits once so every measured run pre-sizes
    // identically and no rehash lands inside a timed region.
    core::FrequencyHash counter(out.n_bits, 0);
    for (std::size_t i = 0; i < out.build_sets; ++i) {
      counter.add_many(out.sets[i].arena_view().data(), out.sets[i].size(),
                       nullptr);
    }
    out.unique = counter.unique_count();
    return out;
  }();
  return w;
}

// --- scalar-probe baseline ---------------------------------------------------

/// Bench-local replica of the pre-PR5 FrequencyHash: open addressing over
/// 16-byte slots with a stored fingerprint fast-path, probing one slot at
/// a time, including the original 3-stage software-prefetch pipeline and
/// the original per-walk probe-counter recording (the new table batches
/// that bookkeeping per call — part of what is being measured). Kept here
/// (not in src/) so the shipped table has exactly one implementation.
class ScalarProbeHash {
 public:
  ScalarProbeHash(std::size_t n_bits, std::size_t expected_unique)
      : words_per_(util::words_for_bits(n_bits)) {
    std::size_t want = 16;
    while (static_cast<double>(expected_unique) >
           kMaxLoad * static_cast<double>(want)) {
      want <<= 1;
    }
    slots_.assign(want, Slot{});
    keys_.reserve(expected_unique * words_per_);
  }

  [[nodiscard]] std::size_t unique_count() const noexcept { return size_; }

  void add_many(const std::uint64_t* keys, std::size_t count,
                const double* /*weights*/) {
    if (count == 0) {
      return;
    }
    if (static_cast<double>(size_ + count) >
        kMaxLoad * static_cast<double>(slots_.size())) {
      std::size_t want = slots_.size();
      while (static_cast<double>(size_ + count) >
             kMaxLoad * static_cast<double>(want)) {
        want <<= 1;
      }
      rehash(want);
    }
    const std::size_t wp = words_per_;
    const std::size_t mask = slots_.size() - 1;
    std::uint64_t fps[kSlotAhead];
    const std::size_t warm = count < kSlotAhead ? count : kSlotAhead;
    for (std::size_t i = 0; i < warm; ++i) {
      const std::uint64_t fp = util::fingerprint(key_i(keys, i));
      fps[i % kSlotAhead] = fp;
      __builtin_prefetch(&slots_[static_cast<std::size_t>(fp) & mask], 1);
    }
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t fp = fps[i % kSlotAhead];
      if (i + kSlotAhead < count) {
        const std::uint64_t ahead =
            util::fingerprint(key_i(keys, i + kSlotAhead));
        fps[(i + kSlotAhead) % kSlotAhead] = ahead;
        __builtin_prefetch(&slots_[static_cast<std::size_t>(ahead) & mask], 1);
      }
      if (i + kKeyAhead < count) {
        const std::uint64_t near = fps[(i + kKeyAhead) % kSlotAhead];
        const Slot& ns = slots_[static_cast<std::size_t>(near) & mask];
        if (ns.count != 0) {
          __builtin_prefetch(keys_.data() +
                             static_cast<std::size_t>(ns.key_index) * wp);
        }
      }
      const std::size_t idx = probe(key_i(keys, i), fp);
      Slot& s = slots_[idx];
      if (s.count == 0) {
        s.fingerprint = fp;
        s.key_index = static_cast<std::uint32_t>(keys_.size() / wp);
        keys_.insert(keys_.end(), keys + i * wp, keys + (i + 1) * wp);
        ++size_;
      }
      s.count += 1;
    }
  }

  void frequency_many(const std::uint64_t* keys, std::size_t count,
                      std::uint32_t* out) const {
    const std::size_t wp = words_per_;
    const std::size_t mask = slots_.size() - 1;
    std::uint64_t fps[kSlotAhead];
    const std::size_t warm = count < kSlotAhead ? count : kSlotAhead;
    for (std::size_t i = 0; i < warm; ++i) {
      const std::uint64_t fp = util::fingerprint(key_i(keys, i));
      fps[i % kSlotAhead] = fp;
      __builtin_prefetch(&slots_[static_cast<std::size_t>(fp) & mask]);
    }
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t fp = fps[i % kSlotAhead];
      if (i + kSlotAhead < count) {
        const std::uint64_t ahead =
            util::fingerprint(key_i(keys, i + kSlotAhead));
        fps[(i + kSlotAhead) % kSlotAhead] = ahead;
        __builtin_prefetch(&slots_[static_cast<std::size_t>(ahead) & mask]);
      }
      if (i + kKeyAhead < count) {
        const std::uint64_t near = fps[(i + kKeyAhead) % kSlotAhead];
        const Slot& s = slots_[static_cast<std::size_t>(near) & mask];
        if (s.count != 0) {
          __builtin_prefetch(keys_.data() +
                             static_cast<std::size_t>(s.key_index) * wp);
        }
      }
      out[i] = slots_[probe(key_i(keys, i), fp)].count;
    }
  }

 private:
  struct Slot {
    std::uint64_t fingerprint = 0;
    std::uint32_t key_index = 0;
    std::uint32_t count = 0;
  };
  static constexpr double kMaxLoad = 0.7;
  static constexpr std::size_t kSlotAhead = 8;
  static constexpr std::size_t kKeyAhead = 4;

  [[nodiscard]] util::ConstWordSpan key_i(const std::uint64_t* keys,
                                          std::size_t i) const noexcept {
    return {keys + i * words_per_, words_per_};
  }

  [[nodiscard]] util::ConstWordSpan key_at(std::uint32_t index) const noexcept {
    return {keys_.data() + static_cast<std::size_t>(index) * words_per_,
            words_per_};
  }

  [[nodiscard]] std::size_t probe(util::ConstWordSpan key,
                                  std::uint64_t fp) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t idx = static_cast<std::size_t>(fp) & mask;
    std::size_t steps = 1;
    while (true) {
      const Slot& s = slots_[idx];
      if (s.count == 0 ||
          (s.fingerprint == fp && util::equal_words(key_at(s.key_index), key))) {
        record_scalar_probe(steps);
        return idx;
      }
      idx = (idx + 1) & mask;
      ++steps;
    }
  }

  void rehash(std::size_t new_slot_count) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_slot_count, Slot{});
    const std::size_t mask = new_slot_count - 1;
    for (const Slot& s : old) {
      if (s.count == 0) {
        continue;
      }
      std::size_t idx = static_cast<std::size_t>(s.fingerprint) & mask;
      while (slots_[idx].count != 0) {
        idx = (idx + 1) & mask;
      }
      slots_[idx] = s;
    }
  }

  std::size_t words_per_ = 0;
  std::size_t size_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint64_t> keys_;
};

// --- measurement -------------------------------------------------------------

struct Outcome {
  double build_ns = 0;  ///< median ns per inserted key
  double query_ns = 0;  ///< median ns per looked-up key
};

std::map<std::string, Outcome>& outcomes() {
  static std::map<std::string, Outcome> o;
  return o;
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

template <typename Table>
void build_into(Table& table, const Workload& w) {
  for (std::size_t i = 0; i < w.build_sets; ++i) {
    table.add_many(w.sets[i].arena_view().data(), w.sets[i].size(), nullptr);
  }
}

template <typename Table>
double build_once(const Workload& w) {
  Table table(w.n_bits, w.unique);
  util::WallTimer timer;
  build_into(table, w);
  const double s = timer.seconds();
  benchmark::DoNotOptimize(table);
  return s;
}

template <typename Table>
double query_once(const Table& table, const Workload& w,
                  std::vector<std::uint32_t>& out, std::uint64_t& checksum) {
  util::WallTimer timer;
  for (const auto& set : w.sets) {
    table.frequency_many(set.arena_view().data(), set.size(), out.data());
    checksum += out[0];
  }
  return timer.seconds();
}

/// Run every ablation's reps interleaved round-robin (rep-major), so slow
/// drift on a shared host — frequency scaling, steal time — lands on each
/// variant equally instead of biasing whole per-variant blocks. The two
/// group-probe query variants share one resident table: the dispatch-level
/// equivalence contract (tests/util/simd_test.cpp) makes its layout
/// byte-identical whichever level built it.
void run_all_measurements() {
  static bool done = false;
  if (done) {
    return;
  }
  done = true;
  using Level = util::simd::Level;
  const Workload& w = workload();
  std::vector<std::uint32_t> out(w.max_set);

  std::vector<double> b_scalar, b_swar, b_simd;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    b_scalar.push_back(build_once<ScalarProbeHash>(w));
    util::simd::set_force_level(Level::Swar);
    b_swar.push_back(build_once<core::FrequencyHash>(w));
    util::simd::set_force_level(std::nullopt);
    b_simd.push_back(build_once<core::FrequencyHash>(w));
  }

  ScalarProbeHash scalar_table(w.n_bits, w.unique);
  build_into(scalar_table, w);
  core::FrequencyHash group_table(w.n_bits, w.unique);
  build_into(group_table, w);
  std::uint64_t checksum = 0;
  std::vector<double> q_scalar, q_swar, q_simd;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    q_scalar.push_back(query_once(scalar_table, w, out, checksum));
    util::simd::set_force_level(Level::Swar);
    q_swar.push_back(query_once(group_table, w, out, checksum));
    util::simd::set_force_level(std::nullopt);
    q_simd.push_back(query_once(group_table, w, out, checksum));
  }
  benchmark::DoNotOptimize(checksum);

  const auto to_outcome = [&](const std::vector<double>& build_s,
                              const std::vector<double>& query_s) {
    return Outcome{
        median_of(build_s) * 1e9 / static_cast<double>(w.build_keys),
        median_of(query_s) * 1e9 / static_cast<double>(w.query_keys)};
  };
  outcomes()["scalar"] = to_outcome(b_scalar, q_scalar);
  outcomes()["group+swar"] = to_outcome(b_swar, q_swar);
  outcomes()["group+simd"] = to_outcome(b_simd, q_simd);
}

void run_variant(benchmark::State& state, const std::string& name) {
  for (auto _ : state) {
    run_all_measurements();
  }
  const Outcome out = outcomes()[name];
  state.counters["build_ns_per_key"] = out.build_ns;
  state.counters["query_ns_per_key"] = out.query_ns;
}

// --- bitset kernel micro-section ---------------------------------------------

struct BitsetOutcome {
  double swar_ns = 0;  ///< ns per word, fused popcount(a & b), forced SWAR
  double simd_ns = 0;  ///< same kernel at the native dispatch level
};

BitsetOutcome bitset_micro() {
  constexpr std::size_t kWords = 1 << 14;  // 128 KiB per operand
  constexpr std::size_t kIters = 64;
  std::vector<std::uint64_t> a(kWords);
  std::vector<std::uint64_t> b(kWords);
  for (std::size_t i = 0; i < kWords; ++i) {
    a[i] = util::mix64(0x9e3779b97f4a7c15ULL + i);
    b[i] = util::mix64(0xbf58476d1ce4e5b9ULL + i);
  }
  const util::ConstWordSpan sa{a.data(), kWords};
  const util::ConstWordSpan sb{b.data(), kWords};
  const auto run = [&] {
    std::size_t sink = 0;
    util::WallTimer timer;
    for (std::size_t it = 0; it < kIters; ++it) {
      sink += util::popcount_and(sa, sb);
      sink += util::popcount_andnot(sa, sb);
    }
    benchmark::DoNotOptimize(sink);
    return timer.seconds() * 1e9 / static_cast<double>(2 * kIters * kWords);
  };
  BitsetOutcome out;
  util::simd::set_force_level(util::simd::Level::Swar);
  (void)run();  // warm
  out.swar_ns = run();
  util::simd::set_force_level(std::nullopt);
  (void)run();
  out.simd_ns = run();
  return out;
}

// --- report ------------------------------------------------------------------

void report() {
  const Workload& w = workload();
  std::printf("\n--- Ablation A8: probe strategy (n=%zu, R=%zu trees / "
              "%zu keys, Q=%zu keys, U=%zu unique) ---\n",
              w.n_bits, w.build_sets, w.build_keys, w.query_keys, w.unique);
  util::TextTable table(
      {"Ablation", "Probe", "Build ns/key", "Query ns/key", "Query speedup"});
  const Outcome scalar = outcomes()["scalar"];
  for (const char* name : {"scalar", "group+swar", "group+simd"}) {
    const Outcome& o = outcomes()[name];
    table.add_row({name,
                   std::string(name) == "scalar" ? "slot-at-a-time"
                                                 : "16-wide group",
                   util::format_fixed(o.build_ns, 1),
                   util::format_fixed(o.query_ns, 1),
                   util::format_fixed(scalar.query_ns / o.query_ns, 2) + "x"});
  }
  table.print(std::cout);

  const Outcome swar = outcomes()["group+swar"];
  const Outcome simd = outcomes()["group+simd"];
  const BitsetOutcome bits = bitset_micro();
  std::printf("\nbitset fused popcount kernels: %.3f ns/word SWAR, "
              "%.3f ns/word native (%.2fx)\n",
              bits.swar_ns, bits.simd_ns, bits.swar_ns / bits.simd_ns);

  const double query_speedup = scalar.query_ns / simd.query_ns;
  const double build_speedup = scalar.build_ns / simd.build_ns;
  verdict("group probe >= 1.15x scalar probe (query)", query_speedup >= 1.15,
          "median query speedup " + util::format_fixed(query_speedup, 2) +
              "x (build " + util::format_fixed(build_speedup, 2) + "x)");
  verdict("SWAR fallback holds its own vs scalar probe",
          swar.query_ns <= scalar.query_ns * 1.05,
          "SWAR query " + util::format_fixed(scalar.query_ns / swar.query_ns,
                                             2) + "x scalar");
  verdict("vector bitset kernels not slower than SWAR",
          bits.simd_ns <= bits.swar_ns * 1.05,
          util::format_fixed(bits.swar_ns / bits.simd_ns, 2) +
              "x on fused popcount");

  record_baseline("probe.scalar.build_ns_per_key", scalar.build_ns);
  record_baseline("probe.scalar.query_ns_per_key", scalar.query_ns);
  record_baseline("probe.group_swar.build_ns_per_key", swar.build_ns);
  record_baseline("probe.group_swar.query_ns_per_key", swar.query_ns);
  record_baseline("probe.group_simd.build_ns_per_key", simd.build_ns);
  record_baseline("probe.group_simd.query_ns_per_key", simd.query_ns);
  record_baseline("bitset.popcount_fused.swar_ns_per_word", bits.swar_ns);
  record_baseline("bitset.popcount_fused.simd_ns_per_word", bits.simd_ns);
}

}  // namespace
}  // namespace bfhrf::bench

int main(int argc, char** argv) {
  using namespace bfhrf::bench;
  print_header("Ablation A8 — scalar vs SIMD group probing",
               "DESIGN.md §5; FrequencyHash probe ablation");
  std::printf(
      "simd: compiled %s, active %s\n",
      bfhrf::util::simd::level_name(bfhrf::util::simd::compiled_level()).data(),
      bfhrf::util::simd::level_name(bfhrf::util::simd::active_level()).data());

  benchmark::RegisterBenchmark("probe/scalar", [](benchmark::State& s) {
    run_variant(s, "scalar");
  })->Iterations(1)->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("probe/group_swar", [](benchmark::State& s) {
    run_variant(s, "group+swar");
  })->Iterations(1)->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("probe/group_simd", [](benchmark::State& s) {
    run_variant(s, "group+simd");
  })->Iterations(1)->Unit(benchmark::kMillisecond);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  report();
  export_metrics("PR5");
  return 0;
}
