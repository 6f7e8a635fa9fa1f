// bfhrf_client: one-shot client for the RF query daemon (bfhrf_serve).
//
//   bfhrf_client --port N [--host A] COMMAND [ARG]
//
//   ping                liveness check
//   stats               snapshot version + index statistics
//   query FILE.nwk      score every tree in FILE; prints "<i>\t<avg_rf>\n"
//                       per tree — the same TSV bfhrf_cli emits, so the two
//                       outputs diff directly (scripts/check.sh relies on
//                       this)
//   publish INDEX       hot-swap the daemon onto a saved index file
//   shutdown            ask the daemon to drain and stop
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "phylo/newick.hpp"
#include "serve/client.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --port N [--host ADDR] "
               "ping|stats|query FILE|publish INDEX|shutdown\n",
               argv0);
}

/// Split a Newick file into one string per ';'-terminated record.
std::vector<std::string> read_newick_records(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bfhrf_client: cannot open '%s'\n", path.c_str());
    std::exit(1);
  }
  // Frame with the Newick reader, so a ';' inside a quoted label or a
  // [comment] does not split a record.
  bfhrf::phylo::NewickReader reader(in,
                                    std::make_shared<bfhrf::phylo::TaxonSet>());
  std::vector<std::string> records;
  for (std::string record; reader.next_record(record);) {
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bfhrf::serve;

  std::string host = "127.0.0.1";
  int port = 0;
  std::vector<std::string> positional;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") {
      host = next();
    } else if (arg == "--port") {
      port = std::atoi(next());
    } else if (arg == "-h" || arg == "--help") {
      usage(argv[0]);
      return 0;
    } else {
      positional.push_back(arg);
    }
  }
  if (port <= 0 || port > 65535 || positional.empty()) {
    usage(argv[0]);
    return 2;
  }
  const std::string& command = positional[0];

  try {
    RfClient client(host, static_cast<std::uint16_t>(port));
    if (command == "ping") {
      client.ping();
      std::printf("ok\n");
    } else if (command == "stats") {
      const StatsResult s = client.stats();
      std::printf("snapshot_version\t%llu\n",
                  static_cast<unsigned long long>(s.snapshot_version));
      std::printf("taxa\t%llu\n", static_cast<unsigned long long>(s.taxa));
      std::printf("reference_trees\t%llu\n",
                  static_cast<unsigned long long>(s.reference_trees));
      std::printf("unique_bipartitions\t%llu\n",
                  static_cast<unsigned long long>(s.unique_bipartitions));
      std::printf("total_bipartitions\t%llu\n",
                  static_cast<unsigned long long>(s.total_bipartitions));
    } else if (command == "query") {
      if (positional.size() != 2) {
        usage(argv[0]);
        return 2;
      }
      const QueryResult result =
          client.query(read_newick_records(positional[1]));
      std::fprintf(stderr, "bfhrf_client: snapshot version %llu\n",
                   static_cast<unsigned long long>(result.snapshot_version));
      for (std::size_t i = 0; i < result.avg_rf.size(); ++i) {
        std::printf("%zu\t%.6f\n", i, result.avg_rf[i]);
      }
    } else if (command == "publish") {
      if (positional.size() != 2) {
        usage(argv[0]);
        return 2;
      }
      const PublishResult result = client.publish(positional[1]);
      std::printf("snapshot_version\t%llu\n",
                  static_cast<unsigned long long>(result.snapshot_version));
    } else if (command == "shutdown") {
      client.shutdown_server();
      std::printf("ok\n");
    } else {
      std::fprintf(stderr, "%s: unknown command '%s'\n", argv[0],
                   command.c_str());
      usage(argv[0]);
      return 2;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bfhrf_client: %s\n", e.what());
    return 1;
  }
}
