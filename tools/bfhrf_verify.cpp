// bfhrf_verify — differential verification harness CLI.
//
// Runs one workload through every RF engine and mode in the library
// (sequential, Day, HashRF, parallel all-pairs, BFHRF span / streamed /
// compressed-key across thread counts), cross-checks the full
// pairwise matrices bit-for-bit, runs the metamorphic invariant library,
// and on any divergence shrinks the collection to a minimal reproducer
// and writes a replayable artifact.
//
//   bfhrf_verify --generate [n=16] [r=12] [q=8] [moves=4] [--seed S]
//   bfhrf_verify --files reference.nwk [query.nwk]
//   bfhrf_verify --replay failure.repro
//
// Exit status: 0 = all engines agree, 1 = divergence (or invariant
// failure), 2 = usage / input error. Designed to run under the asan-ubsan
// and tsan presets (scripts/check.sh "verify" tier).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "phylo/newick.hpp"
#include "phylo/taxon_set.hpp"
#include "qc/persist.hpp"
#include "qc/harness.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace {

enum class Mode { Unset, Generate, Files, Replay, Persist };

struct CliOptions {
  Mode mode = Mode::Unset;
  bfhrf::qc::HarnessOptions harness;
  bfhrf::qc::PersistOracleOptions persist;
  std::string reference_path;
  std::string query_path;
  std::string replay_path;
  bool quiet = false;
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --generate [n=N] [r=R] [q=Q] [moves=M]\n"
      "          | --files reference.nwk [query.nwk]\n"
      "          | --replay failure.repro\n"
      "          | --persist [n=N] [r=R] [q=Q] [moves=M]\n"
      "       [--seed S] [--threads a,b,c] [--artifact PATH]\n"
      "       [--no-invariants] [--no-shrink] [--no-multi]\n"
      "       [--include-trivial] [--quiet]\n"
      "\n"
      "Differential verification of every RF engine in the library: full\n"
      "pairwise matrices are cross-checked bit-for-bit against the\n"
      "sequential oracle, metamorphic RF invariants are checked on\n"
      "transformed copies, and failures are minimized to a replayable\n"
      "artifact. Exit 0 = agree, 1 = divergence, 2 = usage error.\n"
      "\n"
      "  --generate        verify a generated workload; n/r/q/moves are\n"
      "                    key=value tokens following the flag\n"
      "  --files           verify Newick collections from disk\n"
      "  --replay FILE     re-run a previously written failure artifact\n"
      "  --persist         run the sharding/persistence oracle: builds at\n"
      "                    each --threads count (sharded when they have\n"
      "                    workers) and mapped (mmap) index round trips\n"
      "                    are cross-checked bit-for-bit against the\n"
      "                    single-table engine\n"
      "  --seed S          workload seed (decimal or 0x hex); also read\n"
      "                    from BFHRF_FUZZ_SEED when the flag is absent\n"
      "  --threads a,b,c   thread counts to sweep, each at most 1024\n"
      "                    (0 = hardware default)\n"
      "  --artifact PATH   where to write the reproducer on failure\n"
      "                    (default bfhrf_verify_failure.repro)\n"
      "  --no-invariants   skip the metamorphic invariant layer\n"
      "  --no-shrink       keep the full failing collection\n"
      "  --no-multi        generate binary-only (clustered) workloads\n"
      "  --include-trivial count trivial bipartitions too\n"
      "  --quiet           print only the final verdict line\n",
      argv0);
}

std::uint64_t parse_seed(const std::string& s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 0);
  if (end == s.c_str() || *end != '\0') {
    throw bfhrf::InvalidArgument("bad seed '" + s + "'");
  }
  return v;
}

CliOptions parse_args(int argc, char** argv) {
  CliOptions o;
  o.harness.artifact_path = "bfhrf_verify_failure.repro";
  bool seed_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        throw bfhrf::InvalidArgument(std::string(flag) + " needs a value");
      }
      return argv[++i];
    };
    if (arg == "--generate") {
      o.mode = Mode::Generate;
      // Consume the k=v workload tokens that follow.
      while (i + 1 < argc && std::strchr(argv[i + 1], '=') != nullptr &&
             argv[i + 1][0] != '-') {
        const std::string token = argv[++i];
        const std::size_t eq = token.find('=');
        const std::string key = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        if (key == "n") {
          o.harness.n = bfhrf::util::parse_size(value);
        } else if (key == "r") {
          o.harness.r = bfhrf::util::parse_size(value);
        } else if (key == "q") {
          o.harness.q = bfhrf::util::parse_size(value);
        } else if (key == "moves") {
          o.harness.moves = bfhrf::util::parse_size(value);
        } else {
          throw bfhrf::InvalidArgument("unknown --generate key '" + key +
                                       "' (expected n/r/q/moves)");
        }
      }
    } else if (arg == "--persist") {
      o.mode = Mode::Persist;
      while (i + 1 < argc && std::strchr(argv[i + 1], '=') != nullptr &&
             argv[i + 1][0] != '-') {
        const std::string token = argv[++i];
        const std::size_t eq = token.find('=');
        const std::string key = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        if (key == "n") {
          o.persist.n = bfhrf::util::parse_size(value);
        } else if (key == "r") {
          o.persist.r = bfhrf::util::parse_size(value);
        } else if (key == "q") {
          o.persist.q = bfhrf::util::parse_size(value);
        } else if (key == "moves") {
          o.persist.moves = bfhrf::util::parse_size(value);
        } else {
          throw bfhrf::InvalidArgument("unknown --persist key '" + key +
                                       "' (expected n/r/q/moves)");
        }
      }
    } else if (arg == "--files") {
      o.mode = Mode::Files;
      o.reference_path = need_value("--files");
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        o.query_path = argv[++i];
      }
    } else if (arg == "--replay") {
      o.mode = Mode::Replay;
      o.replay_path = need_value("--replay");
    } else if (arg == "--seed" || bfhrf::util::starts_with(arg, "--seed=")) {
      const std::string value =
          arg == "--seed" ? need_value("--seed") : arg.substr(7);
      o.harness.seed = parse_seed(value);
      seed_set = true;
    } else if (arg == "--threads") {
      o.harness.oracle.thread_counts.clear();
      for (const std::string& part :
           bfhrf::util::split(need_value("--threads"), ',')) {
        o.harness.oracle.thread_counts.push_back(bfhrf::util::parse_flag_size(
            "--threads", part, bfhrf::util::kMaxFlagThreads));
      }
      if (o.harness.oracle.thread_counts.empty()) {
        throw bfhrf::InvalidArgument("--threads needs at least one count");
      }
    } else if (arg == "--artifact") {
      o.harness.artifact_path = need_value("--artifact");
    } else if (arg == "--no-invariants") {
      o.harness.run_invariants = false;
    } else if (arg == "--no-shrink") {
      o.harness.shrink_on_failure = false;
    } else if (arg == "--no-multi") {
      o.harness.kind = bfhrf::qc::WorkloadKind::Clustered;
    } else if (arg == "--include-trivial") {
      o.harness.oracle.include_trivial = true;
      o.harness.invariant.include_trivial = true;
      o.persist.include_trivial = true;
    } else if (arg == "--quiet") {
      o.quiet = true;
    } else if (arg == "-h" || arg == "--help") {
      usage(argv[0]);
      std::exit(0);
    } else {
      throw bfhrf::InvalidArgument("unknown argument '" + arg + "'");
    }
  }
  if (o.mode == Mode::Unset) {
    usage(argv[0]);
    throw bfhrf::InvalidArgument(
        "pick one of --generate / --files / --replay / --persist");
  }
  if (!seed_set) {
    // Same replay convention as the test suites (tests/support/test_main).
    if (const char* env = std::getenv("BFHRF_FUZZ_SEED")) {
      o.harness.seed = parse_seed(env);
    }
  }
  o.persist.seed = o.harness.seed;
  // The persist oracle builds at every requested thread count; each gives
  // its own store shape.
  o.persist.threads = o.harness.oracle.thread_counts;
  return o;
}

/// --persist: the sharding / persistence / mmap equivalence oracle.
int run_persist(const CliOptions& cli) {
  const auto report = bfhrf::qc::check_persist_equivalence(cli.persist);
  if (!cli.quiet) {
    for (const std::string& f : report.failures) {
      std::fprintf(stderr, "FAIL %s\n", f.c_str());
    }
  }
  std::printf("%s\n", report.summary().c_str());
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bfhrf;
  CliOptions cli;
  try {
    cli = parse_args(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  try {
    if (cli.mode == Mode::Persist) {
      return run_persist(cli);
    }
    qc::HarnessResult result;
    switch (cli.mode) {
      case Mode::Generate:
        result = qc::verify_generated(cli.harness);
        break;
      case Mode::Files: {
        auto taxa = std::make_shared<phylo::TaxonSet>();
        const std::vector<phylo::Tree> reference =
            phylo::read_newick_file(cli.reference_path, taxa);
        std::vector<phylo::Tree> queries;
        if (!cli.query_path.empty()) {
          queries = phylo::read_newick_file(cli.query_path, taxa);
        }
        taxa->freeze();
        result = qc::verify_collection(reference, queries, cli.harness);
        break;
      }
      case Mode::Replay:
        result = qc::replay_artifact(cli.replay_path, cli.harness);
        break;
      case Mode::Persist:
      case Mode::Unset:
        return 2;  // unreachable; handled/rejected above
    }

    if (!cli.quiet && !result.oracle.engines.empty()) {
      std::fprintf(stderr, "# engines checked:\n");
      for (const std::string& engine : result.oracle.engines) {
        std::fprintf(stderr, "#   %s\n", engine.c_str());
      }
    }
    std::printf("%s\n", result.summary().c_str());
    return result.passed ? 0 : 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
