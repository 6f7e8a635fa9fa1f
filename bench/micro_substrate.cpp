// Microbenchmarks for the substrates (S1, S5, S6, S9, S11): bitset kernels,
// Newick parse throughput, bipartition extraction, frequency-hash ops, and
// a single pairwise RF via each engine. These are conventional
// google-benchmark loops (multiple iterations, statistical timing) and back
// the constants behind the table-level results.
#include <benchmark/benchmark.h>

#include <vector>

#include "common.hpp"
#include "core/bfhrf.hpp"
#include "core/day.hpp"
#include "core/frequency_hash.hpp"
#include "core/rf.hpp"
#include "phylo/bipartition.hpp"
#include "phylo/newick.hpp"
#include "sim/generators.hpp"
#include "sim/moves.hpp"
#include "util/bitset.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace bfhrf {
namespace {

util::DynamicBitset random_bits(std::size_t n, util::Rng& rng) {
  util::DynamicBitset b(n);
  for (std::size_t i = 0; i < n / 2; ++i) {
    b.set(rng.below(n));
  }
  return b;
}

void BM_BitsetXorCount(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(n);
  util::DynamicBitset a = random_bits(n, rng);
  const util::DynamicBitset b = random_bits(n, rng);
  for (auto _ : state) {
    a ^= b;
    benchmark::DoNotOptimize(a.count());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BitsetXorCount)->Arg(48)->Arg(144)->Arg(1000)->Arg(10000);

/// A pool of random keys of `words` words, cycled through so the hash is
/// timed on fresh words rather than one key the compiler could fold.
std::vector<std::uint64_t> random_keys(std::size_t words, util::Rng& rng) {
  std::vector<std::uint64_t> keys(words * 256);
  for (std::uint64_t& w : keys) {
    w = rng();
  }
  return keys;
}

// The store's key fingerprint (mix64 of the linear map L, PCLMULQDQ when
// the CPU has it) against the serial word combine it replaced, per key at
// 1, 3 and 16 words (n = 48, 144, 1000). The extractors fold L with the
// masks, so the engine pays neither; this is what a caller without the
// column pays.
void BM_Fingerprint(benchmark::State& state) {
  const auto words = static_cast<std::size_t>(state.range(0));
  util::Rng rng(words);
  const std::vector<std::uint64_t> keys = random_keys(words, rng);
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        util::fingerprint({keys.data() + k * words, words}));
    k = (k + 1) & 255;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Fingerprint)->Arg(1)->Arg(3)->Arg(16);

void BM_HashWords(benchmark::State& state) {
  const auto words = static_cast<std::size_t>(state.range(0));
  util::Rng rng(words);
  const std::vector<std::uint64_t> keys = random_keys(words, rng);
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        util::hash_words({keys.data() + k * words, words}));
    k = (k + 1) & 255;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashWords)->Arg(1)->Arg(3)->Arg(16);

void BM_CompareWords(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(n + 1);
  const util::DynamicBitset a = random_bits(n, rng);
  const util::DynamicBitset b = a;  // equal: worst case, full scan
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::compare_words(a.words(), b.words()));
  }
}
BENCHMARK(BM_CompareWords)->Arg(48)->Arg(144)->Arg(1000);

void BM_NewickParse(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto taxa = phylo::TaxonSet::make_numbered(n);
  util::Rng rng(n);
  const std::string text = phylo::write_newick(sim::yule_tree(taxa, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(phylo::parse_newick(text, taxa));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_NewickParse)->Arg(48)->Arg(144)->Arg(1000);

void BM_NewickWrite(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto taxa = phylo::TaxonSet::make_numbered(n);
  util::Rng rng(n);
  const phylo::Tree tree = sim::yule_tree(taxa, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(phylo::write_newick(tree));
  }
}
BENCHMARK(BM_NewickWrite)->Arg(48)->Arg(144)->Arg(1000);

void BM_ExtractBipartitions(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto taxa = phylo::TaxonSet::make_numbered(n);
  util::Rng rng(n);
  const phylo::Tree tree = sim::yule_tree(taxa, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(phylo::extract_bipartitions(tree));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n - 3));
}
BENCHMARK(BM_ExtractBipartitions)->Arg(48)->Arg(144)->Arg(1000);

void BM_PairwiseRfSet(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto taxa = phylo::TaxonSet::make_numbered(n);
  util::Rng rng(n);
  const auto a = phylo::extract_bipartitions(sim::yule_tree(taxa, rng));
  const auto b = phylo::extract_bipartitions(sim::yule_tree(taxa, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        phylo::BipartitionSet::symmetric_difference_size(a, b));
  }
}
BENCHMARK(BM_PairwiseRfSet)->Arg(48)->Arg(144)->Arg(1000);

void BM_PairwiseRfDay(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto taxa = phylo::TaxonSet::make_numbered(n);
  util::Rng rng(n);
  const phylo::Tree a = sim::yule_tree(taxa, rng);
  const phylo::Tree b = sim::yule_tree(taxa, rng);
  const core::DayTable table(a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.rf_against(b));
  }
}
BENCHMARK(BM_PairwiseRfDay)->Arg(48)->Arg(144)->Arg(1000);

void BM_FrequencyHashAdd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto taxa = phylo::TaxonSet::make_numbered(n);
  util::Rng rng(n);
  const auto bips = phylo::extract_bipartitions(sim::yule_tree(taxa, rng));
  core::FrequencyHash hash(n);
  for (auto _ : state) {
    bips.for_each([&](util::ConstWordSpan w) { hash.add(w); });
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(bips.size()));
}
BENCHMARK(BM_FrequencyHashAdd)->Arg(48)->Arg(144)->Arg(1000);

void BM_FrequencyHashLookup(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto taxa = phylo::TaxonSet::make_numbered(n);
  util::Rng rng(n);
  core::FrequencyHash hash(n);
  for (int i = 0; i < 50; ++i) {
    const auto bips = phylo::extract_bipartitions(sim::yule_tree(taxa, rng));
    bips.for_each([&](util::ConstWordSpan w) { hash.add(w); });
  }
  const auto probe = phylo::extract_bipartitions(sim::yule_tree(taxa, rng));
  for (auto _ : state) {
    std::uint64_t total = 0;
    probe.for_each(
        [&](util::ConstWordSpan w) { total += hash.frequency(w); });
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(probe.size()));
}
BENCHMARK(BM_FrequencyHashLookup)->Arg(48)->Arg(144)->Arg(1000);

void BM_BfhrfQueryOneTree(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto taxa = phylo::TaxonSet::make_numbered(n);
  util::Rng rng(n);
  std::vector<phylo::Tree> reference;
  const phylo::Tree base = sim::yule_tree(taxa, rng);
  for (int i = 0; i < 100; ++i) {
    phylo::Tree t = base;
    sim::perturb(t, rng, 5);
    reference.push_back(std::move(t));
  }
  core::Bfhrf engine(n);
  engine.build(reference);
  const phylo::Tree query = sim::yule_tree(taxa, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.query_one(query));
  }
}
BENCHMARK(BM_BfhrfQueryOneTree)->Arg(48)->Arg(144)->Arg(1000);

void BM_TreeCopy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto taxa = phylo::TaxonSet::make_numbered(n);
  util::Rng rng(n);
  const phylo::Tree tree = sim::yule_tree(taxa, rng);
  for (auto _ : state) {
    phylo::Tree copy = tree;
    benchmark::DoNotOptimize(copy.num_nodes());
  }
}
BENCHMARK(BM_TreeCopy)->Arg(144)->Arg(1000);

}  // namespace
}  // namespace bfhrf

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  bfhrf::bench::export_metrics("micro_substrate");
  return 0;
}
