// bfhrf_cli — the paper's tool as a command-line program.
//
// Mirrors the original's interface ("an easy to use installation and
// interface for calculating the average RF of query trees against a
// collection of reference trees", §I), streaming both files so memory
// stays bounded by the frequency hash:
//
//   bfhrf_cli -r reference.nwk [-q query.nwk] [-t THREADS]
//             [--normalized | --half] [--min-size K] [--max-size K]
//             [--include-trivial] [--compressed-keys] [--stats]
//             [--save-index FILE | --load-index FILE]
//             [--input-format auto|newick|nexus|vector]
//             [--emit-vector FILE] [--matrix]
//
// With no -q, the reference collection is scored against itself (Q is R,
// the paper's experimental setting). --load-index takes the hash from a
// saved index instead of building it, and needs both -q and -r: an index
// stores no taxon labels, so the namespace (the label-to-bit order) comes
// from the reference file, exactly as a build over it assigns it.
//
// Input files may be Newick (streamed), NEXUS (detected by the #NEXUS
// header; loaded via the TREES block), or a phylo2vec .p2v corpus
// (detected by extension or the P2V1 magic; streamed with bipartitions
// extracted directly from the vector rows — no Newick parse, no Tree).
// --emit-vector converts the reference collection to a .p2v corpus and
// exits. Output: one line per query tree, "<index>\t<avg RF>".
//
// --matrix switches to the exact all-pairs product instead: the full RF
// matrix of the reference collection (core/all_pairs bit-matrix engines,
// dense or sparse rows as the collection's density picks) printed in
// PHYLIP format on stdout.
//
// -t sizes the worker pool: 0 is the hardware default, and a count above
// util::kMaxFlagThreads is refused while the arguments are read.
#include <cctype>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <fstream>
#include <iostream>

#include "core/all_pairs.hpp"
#include "core/bfhrf.hpp"
#include "core/matrix_io.hpp"
#include "core/serialize.hpp"
#include "core/tree_source.hpp"
#include "core/variants.hpp"
#include "phylo/nexus.hpp"
#include "phylo/taxon_set.hpp"
#include "phylo/vector_codec.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"
#include "util/timer.hpp"

namespace {

enum class TreeFormat { Auto, Newick, Nexus, Vector };

struct CliOptions {
  std::string reference_path;
  std::string query_path;   // empty = Q is R
  std::string save_index;   // write the built index here
  std::string load_index;   // read a prebuilt index instead of -r
  std::string emit_vector;  // convert -r to a .p2v corpus and exit
  TreeFormat input_format = TreeFormat::Auto;  // applies to -r and -q
  std::size_t threads = 1;
  bfhrf::core::RfNorm norm = bfhrf::core::RfNorm::None;
  std::optional<std::size_t> min_size;
  std::optional<std::size_t> max_size;
  bool include_trivial = false;
  bool compressed_keys = false;
  bool stats = false;
  bool matrix = false;  // all-pairs PHYLIP matrix instead of averages
};

/// Sniff the file format: NEXUS files start with "#NEXUS".
bool is_nexus(const std::string& path) {
  std::ifstream in(path);
  std::string word;
  in >> word;
  return word.size() >= 6 &&
         (word[0] == '#') &&
         (std::tolower(static_cast<unsigned char>(word[1])) == 'n');
}

/// Sniff a phylo2vec corpus: the .p2v extension or the P2V1 magic bytes.
bool is_p2v(const std::string& path) {
  if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".p2v") == 0) {
    return true;
  }
  std::ifstream in(path, std::ios::binary);
  char magic[4] = {};
  in.read(magic, sizeof magic);
  return in.gcount() == 4 && std::memcmp(magic, "P2V1", 4) == 0;
}

TreeFormat parse_format(const std::string& name) {
  if (name == "auto") {
    return TreeFormat::Auto;
  }
  if (name == "newick") {
    return TreeFormat::Newick;
  }
  if (name == "nexus") {
    return TreeFormat::Nexus;
  }
  if (name == "vector") {
    return TreeFormat::Vector;
  }
  throw bfhrf::InvalidArgument(
      "--input-format must be auto, newick, nexus or vector (got '" + name +
      "')");
}

TreeFormat resolve_format(const std::string& path, TreeFormat forced) {
  if (forced != TreeFormat::Auto) {
    return forced;
  }
  if (is_p2v(path)) {
    return TreeFormat::Vector;
  }
  if (is_nexus(path)) {
    return TreeFormat::Nexus;
  }
  return TreeFormat::Newick;
}

/// Taxon namespace of a .p2v corpus: its labels when it carries them,
/// numbered otherwise.
bfhrf::phylo::TaxonSetPtr p2v_taxa(const bfhrf::phylo::P2vHeader& header) {
  if (header.labels.empty()) {
    return bfhrf::phylo::TaxonSet::make_numbered(header.n_taxa);
  }
  return std::make_shared<bfhrf::phylo::TaxonSet>(header.labels);
}

/// Vector rows address taxa by bit index, so a labeled query corpus must
/// agree with the reference namespace label-for-label — there is no cheap
/// remap of bipartition bitmasks. Label-free corpora are width-checked by
/// the engine.
void check_p2v_labels(const bfhrf::phylo::P2vHeader& header,
                      const bfhrf::phylo::TaxonSet& taxa) {
  if (header.labels.empty()) {
    return;
  }
  if (header.labels != taxa.labels()) {
    throw bfhrf::InvalidArgument(
        "query .p2v taxon labels do not match the reference namespace "
        "(vector rows are bound to bit order; re-emit the corpus over the "
        "reference taxon set)");
  }
}

/// Load a whole collection into memory, in any input format. For vector
/// input `taxa` is replaced by the corpus's own namespace.
std::vector<bfhrf::phylo::Tree> load_trees(const std::string& path,
                                           TreeFormat format,
                                           bfhrf::phylo::TaxonSetPtr& taxa) {
  namespace core = bfhrf::core;
  namespace phylo = bfhrf::phylo;
  if (format == TreeFormat::Nexus) {
    return std::move(phylo::read_nexus_file(path, taxa).trees);
  }
  std::vector<phylo::Tree> trees;
  if (format == TreeFormat::Vector) {
    core::P2vFileSource rows(path);
    taxa = p2v_taxa(rows.header());
    for (phylo::TreeVector row; rows.next(row);) {
      trees.push_back(phylo::vector_to_tree(row, taxa));
    }
    return trees;
  }
  phylo::Tree t;
  core::FileTreeSource src(path, taxa);
  while (src.next(t)) {
    trees.push_back(std::move(t));
  }
  return trees;
}

/// The reference collection, opened for a build: one of the three forms
/// is set, by file format.
struct Reference {
  std::unique_ptr<bfhrf::core::P2vFileSource> rows;     // .p2v
  std::unique_ptr<bfhrf::core::FileTreeSource> stream;  // Newick
  std::vector<bfhrf::phylo::Tree> trees;                // NEXUS
};

/// Open -r and fix the taxon namespace from it, then freeze it so a stray
/// taxon in Q is a clean error rather than a silent widening. Newick files
/// get a discovery pass (the engine needs the universe width up front,
/// and its workers parse against the namespace without growing it) and
/// are rewound for streaming; NEXUS files are loaded via their TREES
/// block; a .p2v header fixes the namespace itself.
Reference open_reference(const std::string& path, TreeFormat format,
                         bfhrf::phylo::TaxonSetPtr& taxa) {
  namespace core = bfhrf::core;
  namespace phylo = bfhrf::phylo;
  Reference ref;
  if (format == TreeFormat::Vector) {
    ref.rows = std::make_unique<core::P2vFileSource>(path);
    taxa = p2v_taxa(ref.rows->header());
  } else if (format == TreeFormat::Nexus) {
    ref.trees = std::move(phylo::read_nexus_file(path, taxa).trees);
  } else {
    ref.stream = std::make_unique<core::FileTreeSource>(path, taxa);
    phylo::Tree t;
    while (ref.stream->next(t)) {
    }
    ref.stream->reset();
  }
  taxa->freeze();
  return ref;
}

/// Run the -q file through `engine` over the reference namespace.
std::vector<double> query_file(const bfhrf::core::Bfhrf& engine,
                               const std::string& path, TreeFormat format,
                               const bfhrf::phylo::TaxonSetPtr& taxa) {
  namespace core = bfhrf::core;
  if (format == TreeFormat::Vector) {
    core::P2vFileSource queries(path);
    check_p2v_labels(queries.header(), *taxa);
    return engine.query(queries);  // direct extraction; width-checked
  }
  if (format == TreeFormat::Nexus) {
    const auto data = bfhrf::phylo::read_nexus_file(path, taxa);
    return engine.query(data.trees);
  }
  core::FileTreeSource queries(path, taxa);
  return engine.query(queries);
}

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s -r reference.nwk [-q query.nwk] [-t THREADS]\n"
      "          [--normalized | --half] [--min-size K] [--max-size K]\n"
      "          [--include-trivial] [--compressed-keys] [--stats]\n"
      "          [--save-index FILE | --load-index FILE]\n"
      "          [--input-format auto|newick|nexus|vector]\n"
      "          [--emit-vector FILE] [--matrix]\n"
      "\n"
      "Average Robinson-Foulds distance of each query tree against the\n"
      "reference collection, via a bipartition frequency hash (BFHRF).\n"
      "With no -q the reference collection is compared against itself.\n"
      "--load-index FILE queries a saved index instead of building one; it\n"
      "needs -q and -r (the reference file fixes the taxon namespace).\n"
      "Inputs may be Newick, NEXUS, or phylo2vec .p2v corpora (vector rows\n"
      "stream straight into bipartition extraction — no Newick parse).\n"
      "--emit-vector converts the reference collection to a .p2v corpus\n"
      "and exits. --matrix instead prints the exact all-pairs RF matrix\n"
      "of the reference collection in PHYLIP format.\n",
      argv0);
}

CliOptions parse_args(int argc, char** argv) {
  CliOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        throw bfhrf::InvalidArgument(std::string(flag) + " needs a value");
      }
      return argv[++i];
    };
    if (arg == "-r" || arg == "--reference") {
      o.reference_path = need_value("-r");
    } else if (arg == "-q" || arg == "--query") {
      o.query_path = need_value("-q");
    } else if (arg == "-t" || arg == "--threads") {
      o.threads = bfhrf::util::parse_flag_size(
          arg, need_value("-t"), bfhrf::util::kMaxFlagThreads);
    } else if (arg == "--normalized") {
      o.norm = bfhrf::core::RfNorm::MaxScaled;
    } else if (arg == "--half") {
      o.norm = bfhrf::core::RfNorm::HalfSum;
    } else if (arg == "--min-size") {
      o.min_size = bfhrf::util::parse_size(need_value("--min-size"));
    } else if (arg == "--max-size") {
      o.max_size = bfhrf::util::parse_size(need_value("--max-size"));
    } else if (arg == "--include-trivial") {
      o.include_trivial = true;
    } else if (arg == "--compressed-keys") {
      o.compressed_keys = true;
    } else if (arg == "--save-index") {
      o.save_index = need_value("--save-index");
    } else if (arg == "--load-index") {
      o.load_index = need_value("--load-index");
    } else if (arg == "--input-format") {
      o.input_format = parse_format(need_value("--input-format"));
    } else if (arg == "--emit-vector") {
      o.emit_vector = need_value("--emit-vector");
    } else if (arg == "--stats") {
      o.stats = true;
    } else if (arg == "--matrix") {
      o.matrix = true;
    } else if (arg == "-h" || arg == "--help") {
      usage(argv[0]);
      std::exit(0);
    } else {
      throw bfhrf::InvalidArgument("unknown argument '" + arg + "'");
    }
  }
  if (o.reference_path.empty()) {
    usage(argv[0]);
    throw bfhrf::InvalidArgument(
        o.load_index.empty()
            ? "missing -r reference file"
            : "--load-index requires -r (an index stores no taxon labels; "
              "the reference file fixes the namespace it was built over)");
  }
  if (!o.load_index.empty() && o.query_path.empty()) {
    throw bfhrf::InvalidArgument("--load-index requires -q (the reference "
                                 "trees are not stored in the index)");
  }
  if (o.matrix && !o.load_index.empty()) {
    throw bfhrf::InvalidArgument("--matrix needs the reference trees (-r); "
                                 "an index stores only the frequency hash");
  }
  if (!o.emit_vector.empty() && o.reference_path.empty()) {
    throw bfhrf::InvalidArgument("--emit-vector converts the -r collection; "
                                 "give it a reference file");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bfhrf;
  try {
    const CliOptions cli = parse_args(argc, argv);

    auto taxa = std::make_shared<phylo::TaxonSet>();

    // The size filter is the variant the paper ships (§VII-F).
    std::unique_ptr<core::RfVariant> variant;
    if (cli.min_size || cli.max_size) {
      variant = std::make_unique<core::SizeFilteredRf>(
          cli.min_size.value_or(0),
          cli.max_size.value_or(std::size_t{1} << 30));
    }

    core::BfhrfOptions opts;
    opts.threads = cli.threads;
    opts.norm = cli.norm;
    opts.include_trivial = cli.include_trivial;
    opts.compressed_keys = cli.compressed_keys;
    opts.variant = variant.get();

    util::WallTimer timer;

    // Conversion mode: materialize the reference collection (any format)
    // and re-emit it as a .p2v corpus, labels included. No engine runs.
    if (!cli.emit_vector.empty()) {
      const TreeFormat fmt =
          resolve_format(cli.reference_path, cli.input_format);
      const auto trees = load_trees(cli.reference_path, fmt, taxa);
      phylo::write_p2v_file(cli.emit_vector, trees);
      std::fprintf(stderr, "# wrote %zu trees over %zu taxa to %s\n",
                   trees.size(), taxa->size(), cli.emit_vector.c_str());
      return 0;
    }

    // Matrix mode: the exact all-pairs product instead of the averages
    // pipeline. The whole collection must be resident (the matrix is
    // O(r²) anyway), so streamed input is collected into memory.
    if (cli.matrix) {
      const TreeFormat fmt =
          resolve_format(cli.reference_path, cli.input_format);
      std::vector<phylo::Tree> trees =
          load_trees(cli.reference_path, fmt, taxa);
      taxa->freeze();
      const core::AllPairsOptions matrix_opts{
          .threads = cli.threads, .include_trivial = cli.include_trivial};
      const core::RfMatrix matrix = core::all_pairs_rf(trees, matrix_opts);
      const std::vector<std::string> names(trees.size());  // "tN" defaults
      core::write_phylip_matrix(std::cout, matrix, names);
      if (cli.stats) {
        std::fprintf(stderr,
                     "# taxa: %zu\n# trees: %zu\n# matrix time: %.3f s\n",
                     taxa->size(), trees.size(), timer.seconds());
      }
      return 0;
    }

    // Phase 1: fix the namespace from R, then build the frequency hash
    // from R or load it from a saved index built over the same R.
    const TreeFormat ref_format =
        resolve_format(cli.reference_path, cli.input_format);
    Reference ref = open_reference(cli.reference_path, ref_format, taxa);
    if (!cli.load_index.empty()) {
      const core::Bfhrf engine = core::load_bfhrf_file(cli.load_index, opts);
      util::WallTimer qtimer;
      const std::vector<double> avg_rf = query_file(
          engine, cli.query_path,
          resolve_format(cli.query_path, cli.input_format), taxa);
      for (std::size_t i = 0; i < avg_rf.size(); ++i) {
        std::printf("%zu\t%.6f\n", i, avg_rf[i]);
      }
      if (cli.stats) {
        const auto stats = engine.stats();
        std::fprintf(stderr,
                     "# loaded index: %zu reference trees, %zu unique "
                     "bipartitions\n# query time: %.3f s\n",
                     stats.reference_trees, stats.unique_bipartitions,
                     qtimer.seconds());
      }
      return 0;
    }

    core::Bfhrf engine(taxa->size(), opts);
    if (ref.rows) {
      engine.build(*ref.rows);
    } else if (ref.stream) {
      engine.build(*ref.stream);
    } else {
      engine.build(ref.trees);
    }
    const double build_seconds = timer.seconds();
    if (!cli.save_index.empty()) {
      core::save_bfhrf_file(engine, cli.save_index);
      std::fprintf(stderr, "# index saved to %s\n", cli.save_index.c_str());
    }

    // Phase 2: run Q (or R again) through the hash.
    timer.restart();
    std::vector<double> avg_rf;
    if (!cli.query_path.empty()) {
      avg_rf = query_file(engine, cli.query_path,
                          resolve_format(cli.query_path, cli.input_format),
                          taxa);
    } else if (ref.rows) {
      ref.rows->reset();
      avg_rf = engine.query(*ref.rows);
    } else if (ref.stream) {
      ref.stream->reset();
      avg_rf = engine.query(*ref.stream);
    } else {
      avg_rf = engine.query(ref.trees);
    }
    const double query_seconds = timer.seconds();

    for (std::size_t i = 0; i < avg_rf.size(); ++i) {
      std::printf("%zu\t%.6f\n", i, avg_rf[i]);
    }

    if (cli.stats) {
      const auto stats = engine.stats();
      std::fprintf(stderr,
                   "# taxa: %zu\n"
                   "# reference trees: %zu\n"
                   "# query trees: %zu\n"
                   "# unique bipartitions: %zu\n"
                   "# sumBFHR: %llu\n"
                   "# hash memory: %.2f MB\n"
                   "# build time: %.3f s\n"
                   "# query time: %.3f s\n",
                   taxa->size(), stats.reference_trees, avg_rf.size(),
                   stats.unique_bipartitions,
                   static_cast<unsigned long long>(stats.total_bipartitions),
                   static_cast<double>(stats.hash_memory_bytes) /
                       (1024.0 * 1024.0),
                   build_seconds, query_seconds);
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
