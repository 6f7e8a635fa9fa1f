#include "corpus.hpp"

#include <span>
#include <vector>

#include "phylo/newick.hpp"
#include "phylo/vector_codec.hpp"
#include "sim/datasets.hpp"
#include "sim/generators.hpp"
#include "sim/moves.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace phylo = bfhrf::phylo;
namespace sim = bfhrf::sim;

Sizes sizes(bool smoke) {
  if (smoke) {
    return Sizes{.newick_ref = 300,
                 .newick_query = 60,
                 .wide_taxa = 200,
                 .wide_moves = 40,
                 .wide_ref = 200,
                 .wide_query = 40,
                 .avian_trees = 300,
                 .avian_moves = 2,
                 .serve_ref = 200,
                 .serve_query = 32};
  }
  return Sizes{.newick_ref = 8000,
               .newick_query = 4000,
               .wide_taxa = 1000,
               .wide_moves = 40,
               .wide_ref = 3000,
               .wide_query = 2000,
               .avian_trees = 5000,
               .avian_moves = 2,
               .serve_ref = 4000,
               .serve_query = 256};
}

namespace {

/// Independent generator seed per (run seed, corpus role).
std::uint64_t role_seed(std::uint64_t seed, std::uint64_t role) {
  return bfhrf::util::mix64(seed * 0x9e3779b97f4a7c15ULL + role);
}

void write_newick(const std::string& path, std::span<const phylo::Tree> trees,
                  bool lengths) {
  phylo::write_newick_file(path, trees,
                           phylo::NewickWriteOptions{.write_lengths = lengths});
}

/// A gene-tree family: `count` copies of one species tree, each perturbed
/// by spec.moves_per_tree random NNI/SPR moves (the sim::generate recipe).
/// The species tree is fixed per `role` and only the perturbations follow
/// the run seed, so every seed asks for the same amount of work: a seeded
/// species tree moves the universe width, and with it every kernel's cost,
/// by more than the benchmark's bounds.
std::vector<phylo::Tree> family(const sim::DatasetSpec& spec,
                                std::uint64_t seed, std::uint64_t role,
                                std::size_t count) {
  const phylo::TaxonSetPtr taxa = phylo::TaxonSet::make_numbered(spec.n_taxa);
  bfhrf::util::Rng species_rng(role_seed(0, role));
  const phylo::Tree species = sim::yule_tree(
      taxa, species_rng, {.branch_lengths = spec.branch_lengths});
  bfhrf::util::Rng rng(role_seed(seed, role));
  std::vector<phylo::Tree> trees;
  trees.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    phylo::Tree t = species;
    sim::perturb(t, rng, spec.moves_per_tree);
    trees.push_back(std::move(t));
  }
  return trees;
}

/// Unique-heavy wide corpus drawn in vector space: each row is the species
/// tree's phylo2vec vector with `moves` codes resampled uniformly (code j
/// re-attaches leaf j+1 anywhere legal, carrying whatever later leaves hang
/// off it), the vector-space analogue of `moves` random SPR moves. Drawing
/// rows directly keeps generation O(n) per tree at n = 1000.
std::vector<phylo::TreeVector> wide_rows(const phylo::TreeVector& base,
                                         bfhrf::util::Rng& rng,
                                         std::size_t count,
                                         std::size_t moves) {
  std::vector<phylo::TreeVector> rows;
  rows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    phylo::TreeVector v = base;
    for (std::size_t m = 0; m < moves; ++m) {
      const std::uint64_t j = 1 + rng.below(v.size() - 1);
      v[j] = static_cast<std::uint32_t>(rng.below(2 * j + 1));
    }
    rows.push_back(std::move(v));
  }
  return rows;
}

}  // namespace

void generate(const std::string& workload, std::uint64_t seed,
              const std::string& dir, bool smoke) {
  const Sizes s = sizes(smoke);
  if (workload == "avgrf_newick") {
    const auto trees = family(sim::insect_like(), seed, 1,
                              s.newick_ref + s.newick_query);
    const std::span<const phylo::Tree> all(trees);
    write_newick(dir + "/ref.nwk", all.first(s.newick_ref), false);
    write_newick(dir + "/query.nwk", all.subspan(s.newick_ref), false);
  } else if (workload == "avgrf_p2v_wide") {
    const phylo::TaxonSetPtr taxa =
        phylo::TaxonSet::make_numbered(s.wide_taxa);
    bfhrf::util::Rng species_rng(role_seed(0, 2));
    const phylo::TreeVector base =
        phylo::tree_to_vector(sim::yule_tree(taxa, species_rng));
    bfhrf::util::Rng rng(role_seed(seed, 2));
    const auto ref = wide_rows(base, rng, s.wide_ref, s.wide_moves);
    const auto query = wide_rows(base, rng, s.wide_query, s.wide_moves);
    const auto n = static_cast<std::uint32_t>(s.wide_taxa);
    phylo::write_p2v_file(dir + "/ref.p2v", n, ref, taxa->labels());
    phylo::write_p2v_file(dir + "/query.p2v", n, query, taxa->labels());
  } else if (workload == "allpairs_avian") {
    sim::DatasetSpec spec = sim::avian_like();
    spec.moves_per_tree = s.avian_moves;
    write_newick(dir + "/trees.nwk", family(spec, seed, 3, s.avian_trees),
                 true);
  } else if (workload == "serve_swap") {
    // Two reference families over one namespace (t0..t143), each with a
    // query tail drawn from the same family; the query pool interleaves
    // both tails so either snapshot sees near and far queries.
    const std::size_t per = s.serve_ref + s.serve_query;
    const auto a = family(sim::insect_like(), seed, 4, per);
    const auto b = family(sim::insect_like(), seed, 5, per);
    const std::span<const phylo::Tree> ta(a);
    const std::span<const phylo::Tree> tb(b);
    write_newick(dir + "/refA.nwk", ta.first(s.serve_ref), false);
    write_newick(dir + "/refB.nwk", tb.first(s.serve_ref), false);
    std::vector<phylo::Tree> queries;
    for (std::size_t i = 0; i < s.serve_query; ++i) {
      queries.push_back(ta[s.serve_ref + i]);
      queries.push_back(tb[s.serve_ref + i]);
    }
    write_newick(dir + "/query.nwk", queries, false);
  } else {
    throw bfhrf::InvalidArgument("unknown workload '" + workload + "'");
  }
}

}  // namespace perfbench
