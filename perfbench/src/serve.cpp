// serve_swap: an in-process RfServer on an ephemeral loopback port, closed
// loop from two client connections, while a third thread swaps the live
// index between two BFHMAP files every 250 ms.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "core/serialize.hpp"
#include "phylo/newick.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = bfhrf::core;
namespace obs = bfhrf::obs;
namespace phylo = bfhrf::phylo;
namespace serve = bfhrf::serve;

namespace {

constexpr double kWarmupS = 0.5;

/// Throughput is the median over slots of this length: a scheduling stall
/// on the shared host then moves a few slots, not the whole window.
constexpr double kRateSlotS = 0.5;

/// One answered request.
struct Reply {
  std::uint64_t version = 0;
  std::size_t base = 0;  ///< first query of the batch (pool index)
  std::vector<double> values;
  double start_s = -1;  ///< since window start; < 0 = warm-up
  double latency_s = 0;
};

/// The batch a client sends: kServeBatch consecutive pool entries.
void fill_batch(const std::vector<std::string>& pool, std::size_t base,
                std::vector<std::string>& batch) {
  batch.resize(kServeBatch);
  for (std::size_t b = 0; b < kServeBatch; ++b) {
    batch[b] = pool[(base + b) % pool.size()];
  }
}

std::vector<std::string> read_records(const std::string& path) {
  std::vector<std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      out.push_back(line);
    }
  }
  return out;
}

/// Median requests/s over the window's least_disturbed() kRateSlotS slots:
/// each slot's rate is its request starts over the time they span.
double median_rate(const ServeWindow& w) {
  struct Slot {
    double count = 0;
    double first = 1e300;
    double last = -1e300;
  };
  std::vector<Slot> by_slot(w.slot_steal.size());
  for (const double s : w.start_s) {
    const auto i = static_cast<std::size_t>(s / kRateSlotS);
    if (i < by_slot.size()) {
      by_slot[i].count += 1;
      by_slot[i].first = std::min(by_slot[i].first, s);
      by_slot[i].last = std::max(by_slot[i].last, s);
    }
  }
  std::vector<Sample> rates;
  for (std::size_t i = 0; i < by_slot.size(); ++i) {
    const Slot& slot = by_slot[i];
    if (slot.count >= 2 && slot.last > slot.first) {
      rates.push_back({(slot.count - 1) / (slot.last - slot.first),
                       w.slot_steal[i]});
    }
  }
  if (rates.empty()) {
    return static_cast<double>(w.start_s.size()) / w.window_s;
  }
  return median(least_disturbed(std::move(rates)));
}

}  // namespace

std::unique_ptr<serve::RfServer> start_server(const ServeInputs& inputs) {
  serve::ServeOptions opts;
  opts.workers = 2;
  auto server = std::make_unique<serve::RfServer>(opts);
  server->publish(inputs.initial);
  server->start();
  return server;
}

ServeWindow serve_window(const ServeInputs& inputs, serve::RfServer& server,
                         std::size_t clients, double seconds,
                         const RunConfig& cfg, Result& res) {
  const std::vector<std::string>& pool = inputs.queries;

  // Verification reference: in-process query_newick on each index file.
  std::array<std::vector<double>, 2> expected;
  for (std::size_t k = 0; k < 2; ++k) {
    const auto snap = core::IndexSnapshot::open(inputs.index_paths[k],
                                                inputs.taxa);
    for (const std::string& q : pool) {
      expected[k].push_back(snap->query_newick(q));
    }
  }
  for (std::size_t i = 0; i < pool.size(); ++i) {
    res.check(inputs.initial->query_newick(pool[i]) == expected[0][i],
              "built snapshot and its saved index disagree on query " +
                  std::to_string(i));
  }
  ServeWindow out;
  out.checksum = fnv1a(
      expected[1].data(), expected[1].size() * sizeof(double),
      fnv1a(expected[0].data(), expected[0].size() * sizeof(double)));
  if (cfg.corrupt) {
    expected[0][0] += 1.0;
  }

  std::map<std::uint64_t, std::size_t> file_of_version{
      {server.current().version(), 0}};
  std::vector<std::vector<Reply>> replies(clients);
  std::vector<std::vector<std::string>> errors(clients + 1);

  std::atomic<int> phase{0};  // 0 warm-up, 1 window, 2 stop
  std::atomic<double> window_start_s{0};
  const Clock::time_point epoch = Clock::now();
  const std::uint64_t parent = Tracer::current();
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        std::vector<std::string> batch;
        std::size_t counter = 0;
        try {
          serve::RfClient client("127.0.0.1", server.port());
          while (phase.load() < 2) {
            const bool in_window = phase.load() == 1;
            const std::size_t base =
                (c * 7919 + counter++ * kServeBatch) % pool.size();
            fill_batch(pool, base, batch);
            Reply r;
            r.base = base;
            r.start_s = in_window ? seconds_since(epoch) - window_start_s.load()
                                  : -1.0;
            const Clock::time_point t0 = Clock::now();
            try {
              const Span span("serve.request", in_window ? parent : 0);
              serve::QueryResult q = client.query(batch);
              r.latency_s = seconds_since(t0);
              r.version = q.snapshot_version;
              r.values = std::move(q.avg_rf);
              replies[c].push_back(std::move(r));
            } catch (const std::exception& e) {
              errors[c].push_back(e.what());
              client = serve::RfClient("127.0.0.1", server.port());
            }
          }
        } catch (const std::exception& e) {
          errors[c].push_back(std::string("client: ") + e.what());
        }
      });
    }
    std::vector<std::pair<std::uint64_t, std::size_t>> published;
    threads.emplace_back([&] {
      while (phase.load() == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      std::size_t next = 1;
      Clock::time_point due = Clock::now();
      while (phase.load() == 1) {
        due += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(kSwapPeriodS));
        while (phase.load() == 1 && Clock::now() < due) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        if (phase.load() != 1) {
          break;
        }
        try {
          const Span span("parallel.snapshot_slot.publish", parent);
          const Clock::time_point t0 = Clock::now();
          const std::uint64_t v = server.publish_file(inputs.index_paths[next]);
          out.publish_s.push_back(seconds_since(t0));
          published.emplace_back(v, next);
        } catch (const std::exception& e) {
          errors[clients].push_back(std::string("publish: ") + e.what());
        }
        next ^= 1;
      }
    });
    std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupS));
    window_start_s.store(seconds_since(epoch));
    phase.store(1);
    // The window runs in kRateSlotS slots until the slots the host left
    // undisturbed add up to `seconds` (or kMaxWindowFactor × seconds in
    // all); a traced run traces the first half of that time.
    const Clock::time_point start = Clock::now();
    const auto slot_length = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(kRateSlotS));
    double clean_s = 0;
    while (out.slot_steal.empty() ||
           (clean_s < seconds &&
            seconds_since(start) < kMaxWindowFactor * seconds)) {
      if (cfg.trace && out.traced_s == 0 &&
          (clean_s >= seconds / 2 || seconds_since(start) >= seconds)) {
        Tracer::get().set_enabled(false);
        out.traced_s = seconds_since(start);
      }
      const StealMeter steal;
      std::this_thread::sleep_until(
          start + slot_length * static_cast<long>(out.slot_steal.size() + 1));
      out.slot_steal.push_back(steal.share());
      clean_s += out.slot_steal.back() <= kMaxStealShare ? kRateSlotS : 0.0;
    }
    phase.store(2);
    out.window_s = seconds_since(start);
    if (cfg.trace && out.traced_s == 0) {
      out.traced_s = out.window_s;
    }
    threads.clear();  // joins
    Tracer::get().set_enabled(cfg.trace);
    file_of_version.insert(published.begin(), published.end());
  }

  for (const std::vector<std::string>& errs : errors) {
    for (const std::string& e : errs) {
      res.fail("serve error: " + e);
    }
  }
  for (const std::vector<Reply>& rs : replies) {
    for (const Reply& r : rs) {
      const auto it = file_of_version.find(r.version);
      bool ok = it != file_of_version.end() && r.values.size() == kServeBatch;
      for (std::size_t b = 0; ok && b < kServeBatch; ++b) {
        ok = r.values[b] == expected[it->second][(r.base + b) % pool.size()];
      }
      res.check(ok, "response for batch at " + std::to_string(r.base) +
                        " (snapshot version " + std::to_string(r.version) +
                        ") differs from in-process query_newick");
      if (r.start_s >= 0) {
        out.latency_s.push_back(r.latency_s);
        out.start_s.push_back(r.start_s);
      }
    }
  }
  return out;
}

void serve_layer_metrics(const ServeInputs& inputs, const ServeWindow& w,
                         Result& res) {
  const obs::Snapshot snap = obs::snapshot();
  const std::vector<std::string>& pool = inputs.queries;
  const auto* req = obs_histogram(snap, "bfhrf.serve.request_seconds");
  const double server_mean_s =
      req != nullptr && req->count > 0
          ? req->sum / static_cast<double>(req->count)
          : 0.0;

  // In-process service: what a worker does for one request, no socket.
  std::vector<double> service;
  std::vector<double> protocol;
  std::vector<std::string> batch;
  double inproc_s = 0;
  std::size_t inproc_trees = 0;
  {
    const Span span("serve.inproc");
    for (std::size_t i = 0; i < 200; ++i) {
      fill_batch(pool, i * kServeBatch % pool.size(), batch);
      protocol.push_back(time_s([&] {
        (void)serve::decode_request(serve::encode(serve::QueryRequest{batch}));
      }));
      service.push_back(time_s([&] {
        const serve::Request request =
            serve::decode_request(serve::encode(serve::QueryRequest{batch}));
        serve::QueryResult result;
        for (const std::string& q :
             std::get<serve::QueryRequest>(request).newicks) {
          result.avg_rf.push_back(inputs.initial->query_newick(q));
        }
        (void)serve::encode(result);
      }));
    }
    const Clock::time_point start = Clock::now();
    while (seconds_since(start) < 0.3) {
      for (const std::string& q : pool) {
        (void)inputs.initial->query_newick(q);
      }
      inproc_trees += pool.size();
    }
    inproc_s = seconds_since(start);
  }

  res.metric("serve.p50_ms", median(w.latency_s) * 1e3, "ms");
  res.metric("serve.p99_ms", quantile(w.latency_s, 0.99) * 1e3, "ms");
  res.metric("serve.samples", static_cast<double>(w.latency_s.size()),
             "count");
  res.metric("serve.inproc_us_per_tree",
             inproc_s / static_cast<double>(inproc_trees) * 1e6, "us");
  res.metric("serve.queue_wait_us_p50",
             obs_hist_quantile(snap, "bfhrf.serve.queue_seconds", 0.5) * 1e6,
             "us");
  res.metric("serve.queue_wait_us_p99",
             obs_hist_quantile(snap, "bfhrf.serve.queue_seconds", 0.99) * 1e6,
             "us");
  res.metric("serve.service_us_p50", median(service) * 1e6, "us");
  res.metric("serve.transport_us", (mean(w.latency_s) - server_mean_s) * 1e6,
             "us");
  res.metric("serve.protocol_us_per_request", median(protocol) * 1e6, "us");
  res.metric("serve.publish_ms", median(w.publish_s) * 1e3, "ms");
  res.metric("serve.swaps",
             static_cast<double>(obs_counter(snap, "bfhrf.serve.swaps")),
             "count");
  res.metric("serve.rejected",
             static_cast<double>(obs_counter(snap, "bfhrf.serve.rejected")),
             "count");
}

void run_serve(const RunConfig& cfg, Result& res) {
  const std::string dir = cfg.data_dir;
  ServeInputs inputs;
  inputs.index_paths = {dir + "/A.bfhmap", dir + "/B.bfhmap"};
  const Span workload_span(cfg.workload);

  // Set-up: both snapshots from their Newick references, both BFHMAP
  // saves, then RfServer::start (repeated per repeat_setup).
  std::unique_ptr<serve::RfServer> server;
  const std::vector<double> setup = repeat_setup([&] {
    if (server != nullptr) {  // one server and snapshot pair alive at a time
      server->stop();
      server.reset();
      inputs.initial.reset();
    }
    const Span span("serve.setup");
    return time_s([&] {
      auto taxa = std::make_shared<phylo::TaxonSet>();
      const std::vector<phylo::Tree> a =
          phylo::read_newick_file(dir + "/refA.nwk", taxa);
      const std::vector<phylo::Tree> b =
          phylo::read_newick_file(dir + "/refB.nwk", taxa);
      const core::BfhrfOptions opts{.threads = cfg.threads};
      auto snap_a = core::IndexSnapshot::build(taxa, a, opts, "A");
      auto snap_b = core::IndexSnapshot::build(taxa, b, opts, "B");
      core::save_bfhrf_file(snap_a->engine(), inputs.index_paths[0],
                            core::IndexFormat::Mapped);
      core::save_bfhrf_file(snap_b->engine(), inputs.index_paths[1],
                            core::IndexFormat::Mapped);
      inputs.taxa = taxa;
      inputs.initial = snap_a;
      server = start_server(inputs);
    });
  });
  inputs.queries = read_records(dir + "/query.nwk");

  // The window's server starts after the registry reset: obs::reset()
  // discards the pending sinks of threads that already exist.
  server->stop();
  obs::reset();
  server = start_server(inputs);
  const ServeWindow w =
      serve_window(inputs, *server, 2, cfg.seconds, cfg, res);
  server->stop();
  server.reset();

  std::printf("# checksum %016llx\n",
              static_cast<unsigned long long>(w.checksum));
  const double rps = median_rate(w);
  res.metric("setup_s", median(setup), "s");
  res.metric("ops_per_s", rps, "1/s");
  std::printf("# window: %zu slots of %.1f s, %zu undisturbed\n",
              w.slot_steal.size(), kRateSlotS,
              static_cast<std::size_t>(std::count_if(
                  w.slot_steal.begin(), w.slot_steal.end(),
                  [](double steal) { return steal <= kMaxStealShare; })));
  std::printf(
      "# %s: requests_per_s %.1f, p50_ms %.4f, p99_ms %.4f over %zu requests "
      "(%zu trees each), %zu swaps\n",
      cfg.workload.c_str(), rps, median(w.latency_s) * 1e3,
      quantile(w.latency_s, 0.99) * 1e3, w.latency_s.size(), kServeBatch,
      w.publish_s.size());

  if (cfg.trace) {
    std::vector<ScalingRow> scaling;
    serve_layer_metrics(inputs, w, res);
    profile_layers({dir + "/refA.nwk", false}, {dir + "/query.nwk", false},
                   cfg, ProfileScope{.matrix = true, .serve = false}, res,
                   scaling);
    // Overhead: the window's traced part against its untraced rest.
    std::size_t first = 0;
    for (const double s : w.start_s) {
      first += s < w.traced_s ? 1 : 0;
    }
    const double traced = static_cast<double>(first) / w.traced_s;
    const double untraced = static_cast<double>(w.start_s.size() - first) /
                            (w.window_s - w.traced_s);
    res.metric("trace.overhead_frac", 1.0 - traced / untraced, "ratio");

    // Serve scaling: the same swap session at one client.
    server = start_server(inputs);
    const ServeWindow one =
        serve_window(inputs, *server, 1, cfg.seconds / 3, cfg, res);
    server->stop();
    scaling.push_back(
        {"serve (requests/s)", median_rate(one), rps, "1/s", 2});
    print_scaling(scaling);
  }
  for (const std::string& p : inputs.index_paths) {
    std::filesystem::remove(p);
  }
}

}  // namespace perfbench
