// rf_matrix_tool — the all-versus-all workflow (paper §VIII): exact RF
// matrix of a collection, written as PHYLIP for downstream clustering and
// visualisation tools.
//
//   rf_matrix_tool -r trees.nwk [-t THREADS] [-o matrix.phy] [-k K]
//
// With -k the tool also clusters the matrix (average linkage) and prints
// cluster sizes plus the medoid tree per cluster — a complete §VIII
// analysis in one command.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/all_pairs.hpp"
#include "core/cluster.hpp"
#include "core/matrix_io.hpp"
#include "phylo/newick.hpp"
#include "phylo/nexus.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "util/timer.hpp"

namespace {

bool is_nexus(const std::string& path) {
  std::ifstream in(path);
  std::string word;
  in >> word;
  return !word.empty() && word[0] == '#';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bfhrf;
  try {
    std::string input_path;
    std::string output_path;
    std::size_t threads = 1;
    std::size_t k = 0;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&] {
        if (i + 1 >= argc) {
          throw InvalidArgument(arg + " needs a value");
        }
        return std::string(argv[++i]);
      };
      if (arg == "-r") {
        input_path = value();
      } else if (arg == "-o") {
        output_path = value();
      } else if (arg == "-t") {
        threads = util::parse_flag_size(arg, value(), util::kMaxFlagThreads);
      } else if (arg == "-k") {
        k = util::parse_size(value());
      } else {
        std::fprintf(stderr,
                     "usage: %s -r trees.nwk [-t THREADS] [-o matrix.phy] "
                     "[-k K]\n",
                     argv[0]);
        return 1;
      }
    }
    if (input_path.empty()) {
      throw InvalidArgument("missing -r input file");
    }

    auto taxa = std::make_shared<phylo::TaxonSet>();
    std::vector<phylo::Tree> trees;
    if (is_nexus(input_path)) {
      trees = std::move(phylo::read_nexus_file(input_path, taxa).trees);
    } else {
      trees = phylo::read_newick_file(input_path, taxa);
    }

    util::WallTimer timer;
    const core::RfMatrix matrix =
        core::all_pairs_rf(trees, {.threads = threads});
    std::fprintf(stderr, "# %zu trees, matrix in %.3f s (%.2f MB)\n",
                 trees.size(), timer.seconds(),
                 static_cast<double>(matrix.memory_bytes()) /
                     (1024.0 * 1024.0));

    std::vector<std::string> names;
    names.reserve(trees.size());
    for (std::size_t i = 0; i < trees.size(); ++i) {
      names.push_back("tree" + std::to_string(i));
    }
    if (output_path.empty()) {
      core::write_phylip_matrix(std::cout, matrix, names);
    } else {
      core::write_phylip_matrix_file(output_path, matrix, names);
      std::fprintf(stderr, "# matrix written to %s\n", output_path.c_str());
    }

    if (k > 0) {
      const auto dendro =
          core::hierarchical_cluster(matrix, core::Linkage::Average);
      const auto labels = dendro.cut(k);
      util::Rng rng(1);
      const auto medoids = core::k_medoids(matrix, k, rng);
      std::map<std::uint32_t, std::size_t> sizes;
      for (const auto label : labels) {
        ++sizes[label];
      }
      std::fprintf(stderr, "# %zu clusters (average linkage):\n", k);
      for (const auto& [label, size] : sizes) {
        std::fprintf(stderr, "#   cluster %u: %zu trees\n", label, size);
      }
      std::fprintf(stderr, "# k-medoid representatives:\n");
      for (std::size_t c = 0; c < k; ++c) {
        std::fprintf(stderr, "#   %s\n",
                     phylo::write_newick(trees[medoids.medoids[c]]).c_str());
      }
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
