// perfbench_harness: generates a workload's corpus, or runs one workload and
// prints its verdict and metrics as the last stdout line.
//
//   perfbench_harness generate --workload W --seed S --dir DATA [--smoke]
//   perfbench_harness run --workload W --seed S --seconds T --trace 0|1
//                        --dir DATA --out OUT [--smoke] [--corrupt]
//                        [--commit C] [--digest D]
//
// perfbench/run.py wraps both steps (one process each, so corpus
// generation never shows in a run's time or memory) and checks the printed
// metric names against BENCHMARK.json.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "corpus.hpp"
#include "harness.hpp"
#include "util/memory.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness generate|run --workload W --seed S "
               "--dir DATA [--seconds T --trace 0|1 --out OUT] [--smoke] "
               "[--corrupt] [--commit C] [--digest D]\n");
  return 2;
}

void run_workload(const RunConfig& cfg, Result& res) {
  if (cfg.workload == "avgrf_newick") {
    run_avgrf(cfg, res, false);
  } else if (cfg.workload == "avgrf_p2v_wide") {
    run_avgrf(cfg, res, true);
  } else if (cfg.workload == "allpairs_avian") {
    run_allpairs(cfg, res);
  } else if (cfg.workload == "serve_swap") {
    run_serve(cfg, res);
  } else {
    throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  const std::string mode = argv[1];
  RunConfig cfg;
  std::string commit = "unknown";
  std::string digest = "unknown";
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench_harness: %s needs a value\n",
                     arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      cfg.workload = value();
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      cfg.trace = value() == "1";
    } else if (arg == "--dir") {
      cfg.data_dir = value();
    } else if (arg == "--out") {
      cfg.out_dir = value();
    } else if (arg == "--commit") {
      commit = value();
    } else if (arg == "--digest") {
      digest = value();
    } else if (arg == "--smoke") {
      cfg.smoke = true;
    } else if (arg == "--corrupt") {
      cfg.corrupt = true;
    } else {
      return usage();
    }
  }
  if (cfg.workload.empty() || cfg.data_dir.empty()) {
    return usage();
  }

  try {
    if (mode == "generate") {
      generate(cfg.workload, cfg.seed, cfg.data_dir, cfg.smoke);
      return 0;
    }
    if (mode != "run" || cfg.out_dir.empty() || cfg.seconds <= 0) {
      return usage();
    }
    cfg.threads = std::max(1U, std::thread::hardware_concurrency());
    std::printf("# host %s\n", host_json(commit, digest).c_str());
    std::printf("# workload %s seed %llu seconds %g trace %d threads %zu\n",
                cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
                cfg.seconds, cfg.trace ? 1 : 0, cfg.threads);
    std::fflush(stdout);

    Tracer::get().set_enabled(cfg.trace);
    Result res;
    run_workload(cfg, res);
    res.metric("peak_rss_mb",
               static_cast<double>(bfhrf::util::peak_rss_bytes()) /
                   (1024.0 * 1024.0),
               "MB");
    if (cfg.trace) {
      // A traced run reports the per-layer metrics only; its end-to-end
      // numbers carry the tracing overhead.
      for (const char* name : {"setup_s", "ops_per_s", "peak_rss_mb"}) {
        res.erase(name);
      }
      const std::string path = cfg.out_dir + "/spans_" + cfg.workload +
                               "_seed" + std::to_string(cfg.seed) + ".jsonl";
      res.metric("trace.spans", static_cast<double>(Tracer::get().size()),
                 "count");
      Tracer::get().write(path);
      Tracer::get().print_summary();
      std::printf("# span file %s\n", path.c_str());
    }
    std::printf("%s\n", res.json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
