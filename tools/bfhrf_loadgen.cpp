// bfhrf_loadgen: closed-loop load generator for the RF query daemon.
//
// Each client thread owns one connection and keeps exactly one request in
// flight (closed loop: issue, await, repeat), so measured latency includes
// queueing under the daemon's own admission control. Sweeps a list of
// concurrency levels and reports per-level p50/p95/p99.
//
//   bfhrf_loadgen -q QUERY.nwk --inprocess -r REF.nwk [options]
//   bfhrf_loadgen -q QUERY.nwk --port N [--host A] [options]
//
// With --inprocess the daemon runs inside this process on an ephemeral
// loopback port (self-contained benchmarking); otherwise an external
// bfhrf_serve is targeted. Emits a BENCH_<slug>.json blob in the
// scripts/bench_compare.py format with serve.cK.p50_us / p99_us baselines.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/snapshot.hpp"
#include "obs/metrics.hpp"
#include "phylo/newick.hpp"
#include "phylo/taxon_set.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"
#include "util/timer.hpp"

namespace {

using namespace bfhrf;

/// Most requests --requests may ask of each client per level: every client
/// thread reserves one latency slot per request before its first one.
constexpr std::size_t kMaxRequests = 100000;

struct LoadgenOptions {
  std::string query_path;
  std::string ref_path;  // --inprocess only
  bool inprocess = false;
  std::string host = "127.0.0.1";
  int port = 0;
  std::vector<std::size_t> clients = {1, 8, 64};
  std::size_t requests = 50;  ///< per client, per level
  std::size_t batch = 1;      ///< trees per request
  std::size_t workers = 4;    ///< --inprocess server workers
  std::string slug = "serve_loadgen";
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s -q QUERY.nwk (--inprocess -r REF.nwk | --port N) "
      "[options]\n"
      "  --host ADDR      daemon address (default 127.0.0.1)\n"
      "  --clients LIST   comma-separated concurrency sweep, each level\n"
      "                   1..1024 (default 1,8,64)\n"
      "  --requests N     requests per client per level, at most 100000\n"
      "                   (default 50)\n"
      "  --batch N        query trees per request (default 1)\n"
      "  --workers N      in-process daemon worker threads, at most 1024\n"
      "                   (default 4)\n"
      "  --slug NAME      BENCH_<NAME>.json export slug\n",
      argv0);
}

/// util::parse_flag_size for this tool's flags: a rejected value exits 1
/// with a message naming the flag, before any file, socket or thread
/// opens.
std::size_t flag_size(
    const std::string& flag, const std::string& value,
    std::size_t max = std::numeric_limits<std::size_t>::max()) {
  try {
    return util::parse_flag_size(flag, value, max);
  } catch (const Error& e) {
    std::fprintf(stderr, "bfhrf_loadgen: %s\n", e.what());
    std::exit(1);
  }
}

/// The --clients sweep: comma-separated concurrency levels, each at least
/// 1 and at most util::kMaxFlagThreads.
std::vector<std::size_t> parse_client_levels(const std::string& text) {
  std::vector<std::size_t> out;
  for (const std::string& item : util::split(text, ',')) {
    out.push_back(flag_size("--clients", item, util::kMaxFlagThreads));
    if (out.back() == 0) {
      std::fprintf(stderr, "bfhrf_loadgen: --clients: a concurrency level "
                           "must be at least 1\n");
      std::exit(1);
    }
  }
  return out;
}

std::vector<std::string> read_newick_records(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bfhrf_loadgen: cannot open '%s'\n", path.c_str());
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
  if (records.empty()) {
    std::fprintf(stderr, "bfhrf_loadgen: no trees in '%s'\n", path.c_str());
    std::exit(1);
  }
  return records;
}

double percentile(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) {
    return 0.0;
  }
  const double rank = p * static_cast<double>(sorted_us.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_us.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_us[lo] * (1.0 - frac) + sorted_us[hi] * frac;
}

struct LevelResult {
  std::size_t clients = 0;
  double p50_us = 0, p95_us = 0, p99_us = 0;
  double throughput_rps = 0;
};

LevelResult run_level(const LoadgenOptions& opts, std::uint16_t port,
                      const std::vector<std::string>& queries,
                      std::size_t n_clients) {
  std::vector<std::vector<double>> latencies(n_clients);
  std::vector<std::thread> threads;
  threads.reserve(n_clients);
  const util::WallTimer wall;
  for (std::size_t c = 0; c < n_clients; ++c) {
    threads.emplace_back([&, c] {
      serve::RfClient client(opts.host, port);
      std::vector<std::string> batch(opts.batch);
      std::vector<double>& lat = latencies[c];
      lat.reserve(opts.requests);
      for (std::size_t r = 0; r < opts.requests; ++r) {
        for (std::size_t b = 0; b < opts.batch; ++b) {
          batch[b] = queries[(c + r * opts.batch + b) % queries.size()];
        }
        const util::WallTimer t;
        const serve::QueryResult result = client.query(batch);
        lat.push_back(t.seconds() * 1e6);
        if (result.avg_rf.size() != opts.batch) {
          std::fprintf(stderr, "bfhrf_loadgen: short response\n");
          std::exit(1);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const double elapsed = wall.seconds();

  std::vector<double> all;
  for (const auto& v : latencies) {
    all.insert(all.end(), v.begin(), v.end());
  }
  std::sort(all.begin(), all.end());
  LevelResult res;
  res.clients = n_clients;
  res.p50_us = percentile(all, 0.50);
  res.p95_us = percentile(all, 0.95);
  res.p99_us = percentile(all, 0.99);
  res.throughput_rps =
      elapsed > 0 ? static_cast<double>(all.size()) / elapsed : 0.0;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  LoadgenOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "-q") {
      opts.query_path = next();
    } else if (arg == "-r") {
      opts.ref_path = next();
    } else if (arg == "--inprocess") {
      opts.inprocess = true;
    } else if (arg == "--host") {
      opts.host = next();
    } else if (arg == "--port") {
      opts.port = static_cast<int>(flag_size(arg, next(), util::kMaxFlagPort));
    } else if (arg == "--clients") {
      opts.clients = parse_client_levels(next());
    } else if (arg == "--requests") {
      opts.requests = flag_size(arg, next(), kMaxRequests);
    } else if (arg == "--batch") {
      opts.batch = std::max<std::size_t>(1, flag_size(arg, next()));
    } else if (arg == "--workers") {
      opts.workers = std::max<std::size_t>(
          1, flag_size(arg, next(), util::kMaxFlagThreads));
    } else if (arg == "--slug") {
      opts.slug = next();
    } else if (arg == "-h" || arg == "--help") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0],
                   arg.c_str());
      return 2;
    }
  }
  if (opts.query_path.empty() || opts.clients.empty() ||
      (opts.inprocess ? opts.ref_path.empty() : opts.port <= 0)) {
    usage(argv[0]);
    return 2;
  }

  try {
    const std::vector<std::string> queries =
        read_newick_records(opts.query_path);

    std::unique_ptr<serve::RfServer> server;
    std::uint16_t port = static_cast<std::uint16_t>(opts.port);
    if (opts.inprocess) {
      auto taxa = std::make_shared<phylo::TaxonSet>();
      std::vector<phylo::Tree> reference =
          phylo::read_newick_file(opts.ref_path, taxa);
      serve::ServeOptions sopts;
      sopts.workers = opts.workers;
      server = std::make_unique<serve::RfServer>(sopts);
      server->publish(core::IndexSnapshot::build(std::move(taxa), reference,
                                                 {}, opts.ref_path));
      server->start();
      port = server->port();
    }

    std::vector<LevelResult> results;
    for (const std::size_t n : opts.clients) {
      // One untimed warm-up pass per level settles connections and caches.
      LoadgenOptions warm = opts;
      warm.requests = std::max<std::size_t>(1, opts.requests / 10);
      (void)run_level(warm, port, queries, n);
      results.push_back(run_level(opts, port, queries, n));
      const LevelResult& r = results.back();
      std::fprintf(stderr,
                   "clients=%3zu  p50=%9.1fus  p95=%9.1fus  p99=%9.1fus  "
                   "%8.0f req/s\n",
                   r.clients, r.p50_us, r.p95_us, r.p99_us,
                   r.throughput_rps);
    }

    if (server != nullptr) {
      server->stop();
    }

    // BENCH_<slug>.json in the scripts/bench_compare.py shape; latency
    // percentiles gate one-sided (higher = regression).
    std::string baselines;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const LevelResult& r = results[i];
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "  \"serve.c%zu.p50_us\": %.3f,\n"
                    "  \"serve.c%zu.p99_us\": %.3f",
                    r.clients, r.p50_us, r.clients, r.p99_us);
      baselines += buf;
      baselines += i + 1 < results.size() ? ",\n" : "\n";
    }
    const std::string blob = "{\n\"experiment\": \"" + opts.slug +
                             "\",\n\"scale\": \"loopback\",\n"
                             "\"baselines\": {\n" +
                             baselines + "},\n\"metrics\": " +
                             obs::dump_string() + "}\n";
    const char* env = std::getenv("BFHRF_OBS_JSON");
    const std::string path =
        env != nullptr ? env : ("BENCH_" + opts.slug + ".json");
    if (path == "-") {
      std::fputs(blob.c_str(), stdout);
    } else {
      std::ofstream out(path);
      out << blob;
      std::fprintf(stderr, "bfhrf_loadgen: wrote %s\n", path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bfhrf_loadgen: %s\n", e.what());
    return 1;
  }
}
