// bfhrf_serve: the long-lived RF query daemon.
//
// Loads a BFH index (built from a reference file, or a saved index file
// replayed against the reference that built it) and answers tree-vs-
// collection RF queries over the serve/ wire protocol until told to stop
// (SIGINT/SIGTERM or the Shutdown opcode).
//
//   bfhrf_serve -r ref.nwk [--load-index FILE] [--port N] [--workers N] ...
//
// Prints "READY port=<p> version=<v>" on stdout once the socket is
// listening — scripts wait for that line before connecting.
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/snapshot.hpp"
#include "phylo/newick.hpp"
#include "phylo/taxon_set.hpp"
#include "serve/server.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s -r REF.nwk [options]\n"
               "\n"
               "Serve average-RF queries against a reference collection.\n"
               "\n"
               "  -r FILE            reference Newick file. Always required:\n"
               "                     it defines the taxon namespace (index\n"
               "                     files store bitmasks, not labels).\n"
               "  --load-index FILE  serve this saved index instead of\n"
               "                     building from -r. FILE must have been\n"
               "                     built over the same reference file.\n"
               "  --host ADDR        bind address (default 127.0.0.1)\n"
               "  --port N           TCP port, at most 65535; 0 = ephemeral\n"
               "                     (default 0)\n"
               "  --workers N        query worker threads, at most 1024\n"
               "                     (default 2)\n"
               "  --queue N          admission queue capacity (default auto)\n"
               "  --threads N        index build threads, at most 1024;\n"
               "                     0 = hardware default (default 1)\n"
               "  --no-admin         refuse Publish/Shutdown opcodes\n",
               argv0);
}

/// util::parse_flag_size for this tool's flags: a rejected value exits 1
/// with a message naming the flag, before any file, socket or thread
/// opens.
std::size_t flag_size(
    const std::string& flag, const char* value,
    std::size_t max = std::numeric_limits<std::size_t>::max()) {
  try {
    return bfhrf::util::parse_flag_size(flag, value, max);
  } catch (const bfhrf::Error& e) {
    std::fprintf(stderr, "bfhrf_serve: %s\n", e.what());
    std::exit(1);
  }
}

bfhrf::serve::RfServer* g_server = nullptr;

}  // namespace

int main(int argc, char** argv) {
  using namespace bfhrf;

  std::string ref_path;
  std::string index_path;
  serve::ServeOptions opts;
  opts.load_opts.threads = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "-r") {
      ref_path = next();
    } else if (arg == "--load-index") {
      index_path = next();
    } else if (arg == "--host") {
      opts.host = next();
    } else if (arg == "--port") {
      opts.port = static_cast<std::uint16_t>(
          flag_size(arg, next(), util::kMaxFlagPort));
    } else if (arg == "--workers") {
      opts.workers = flag_size(arg, next(), util::kMaxFlagThreads);
    } else if (arg == "--queue") {
      opts.queue_capacity = flag_size(arg, next());
    } else if (arg == "--threads") {
      opts.load_opts.threads = flag_size(arg, next(), util::kMaxFlagThreads);
    } else if (arg == "--no-admin") {
      opts.allow_admin = false;
    } else if (arg == "-h" || arg == "--help") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0],
                   arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (ref_path.empty()) {
    usage(argv[0]);
    return 2;
  }

  // Block the termination signals BEFORE any thread exists so every thread
  // inherits the mask; the dedicated sigwait thread below is then the only
  // consumer (plain handlers can't call request_stop: it locks a mutex).
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  try {
    // Parsing the reference recreates the exact label-to-bit assignment the
    // index was (or is about to be) built over.
    auto taxa = std::make_shared<phylo::TaxonSet>();
    std::vector<phylo::Tree> reference =
        phylo::read_newick_file(ref_path, taxa);

    std::shared_ptr<const core::IndexSnapshot> snapshot;
    if (!index_path.empty()) {
      snapshot = core::IndexSnapshot::open(index_path, taxa, opts.load_opts);
    } else {
      snapshot = core::IndexSnapshot::build(taxa, reference, opts.load_opts,
                                            ref_path);
    }

    serve::RfServer server(opts);
    const std::uint64_t version = server.publish(std::move(snapshot));
    server.start();
    g_server = &server;

    std::atomic<bool> exiting{false};
    std::thread sig_thread([&sigs, &exiting] {
      for (;;) {
        int sig = 0;
        sigwait(&sigs, &sig);
        if (exiting.load()) {
          return;
        }
        if (g_server != nullptr) {
          g_server->request_stop();
        }
      }
    });

    std::printf("READY port=%u version=%llu\n", server.port(),
                static_cast<unsigned long long>(version));
    std::fflush(stdout);

    server.wait();
    exiting.store(true);
    ::kill(::getpid(), SIGTERM);  // unblock the sigwait thread
    sig_thread.join();
    g_server = nullptr;
    server.stop();
    std::fprintf(stderr, "bfhrf_serve: stopped\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bfhrf_serve: %s\n", e.what());
    return 1;
  }
}
