#include "harness.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>

#include <unistd.h>

#include "util/simd.hpp"

namespace perfbench {

double steal_s() {
  // First line: cpu user nice system idle iowait irq softirq steal ...
  std::ifstream in("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  in >> cpu;
  for (double& f : fields) {
    in >> f;
  }
  static const double ticks_per_s = static_cast<double>(sysconf(_SC_CLK_TCK));
  return in && cpu == "cpu" && ticks_per_s > 0 ? fields[7] / ticks_per_s : 0.0;
}

StealMeter::StealMeter() : start_(Clock::now()), steal_at_start_(steal_s()) {}

double StealMeter::share() const {
  const double offered =
      wall_s() * std::max(1U, std::thread::hardware_concurrency());
  return offered > 0 ? (steal_s() - steal_at_start_) / offered : 0.0;
}

std::vector<double> least_disturbed(std::vector<Sample> samples) {
  const auto clean = static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(), [](const Sample& s) {
        return s.steal <= kMaxStealShare;
      }));
  const std::size_t keep =
      clean >= kMinCleanSamples
          ? clean
          : std::min(samples.size(),
                     std::max(kMinCleanSamples, (samples.size() + 3) / 4));
  std::stable_sort(samples.begin(), samples.end(),
                   [](const Sample& a, const Sample& b) {
                     return a.steal < b.steal;
                   });
  std::vector<double> values;
  values.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i) {
    values.push_back(samples[i].value);
  }
  return values;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

double harmonic_mean(const std::vector<double>& rates) {
  double inverse_sum = 0.0;
  for (const double r : rates) {
    inverse_sum += 1.0 / r;
  }
  return rates.empty() ? 0.0
                       : static_cast<double>(rates.size()) / inverse_sum;
}

// --- tracing ----------------------------------------------------------------

namespace {

struct ThreadTrace {
  std::vector<std::uint64_t> stack;  ///< open span ids, innermost last
  std::uint32_t ordinal = 0;
};

ThreadTrace& thread_trace() {
  static std::atomic<std::uint32_t> next_ordinal{0};
  thread_local ThreadTrace t{{}, next_ordinal.fetch_add(1)};
  return t;
}

}  // namespace

Tracer::Tracer() : epoch_(Clock::now()) {}

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::open(std::string_view name, std::uint64_t parent) {
  ThreadTrace& t = thread_trace();
  if (parent == 0 && !t.stack.empty()) {
    parent = t.stack.back();
  }
  Record rec{std::string(name), 0, parent, t.ordinal, seconds_since(epoch_),
             0.0};
  std::uint64_t id = 0;
  {
    const std::lock_guard lock(mu_);
    id = records_.size() + 1;
    rec.id = id;
    records_.push_back(std::move(rec));
  }
  t.stack.push_back(id);
  return id;
}

void Tracer::close(std::uint64_t id) {
  const double end = seconds_since(epoch_);
  ThreadTrace& t = thread_trace();
  if (!t.stack.empty() && t.stack.back() == id) {
    t.stack.pop_back();
  }
  const std::lock_guard lock(mu_);
  records_[id - 1].end_s = end;
}

std::uint64_t Tracer::current() noexcept {
  const ThreadTrace& t = thread_trace();
  return t.stack.empty() ? 0 : t.stack.back();
}

std::size_t Tracer::size() const {
  const std::lock_guard lock(mu_);
  return records_.size();
}

std::vector<double> Tracer::self_times() const {
  // Self time = duration minus the part covered by same-thread children
  // (children never overlap each other on one thread).
  std::vector<double> self(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    self[i] = records_[i].end_s - records_[i].start_s;
  }
  for (const Record& r : records_) {
    if (r.parent != 0 && records_[r.parent - 1].thread == r.thread) {
      self[r.parent - 1] -= r.end_s - r.start_s;
    }
  }
  return self;
}

void Tracer::write(const std::string& path) const {
  const std::lock_guard lock(mu_);
  const std::vector<double> self = self_times();
  std::ofstream out(path);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << "{\"name\": \"" << r.name << "\", \"id\": " << r.id
        << ", \"parent\": " << r.parent << ", \"thread\": " << r.thread
        << ", \"start_us\": " << format_double(r.start_s * 1e6)
        << ", \"dur_us\": " << format_double((r.end_s - r.start_s) * 1e6)
        << ", \"self_us\": " << format_double(self[i] * 1e6) << "}\n";
  }
}

void Tracer::print_summary() const {
  const std::lock_guard lock(mu_);
  const std::vector<double> self = self_times();
  struct Agg {
    std::size_t count = 0;
    double total = 0;
    double self = 0;
  };
  std::map<std::string, Agg> by_name;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    Agg& a = by_name[records_[i].name];
    ++a.count;
    a.total += records_[i].end_s - records_[i].start_s;
    a.self += self[i];
  }
  std::printf("# spans: %-40s %8s %12s %12s\n", "name", "count", "total_s",
              "self_s");
  for (const auto& [name, a] : by_name) {
    std::printf("# spans: %-40s %8zu %12.6f %12.6f\n", name.c_str(), a.count,
                a.total, a.self);
  }
}

Span::Span(std::string_view name, std::uint64_t parent) {
  Tracer& t = Tracer::get();
  if (t.enabled()) {
    id_ = t.open(name, parent);
  }
}

Span::~Span() {
  if (id_ != 0) {
    Tracer::get().close(id_);
  }
}

// --- result -----------------------------------------------------------------

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m = {name, value, unit};
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Result::erase(const std::string& name) {
  std::erase_if(metrics_, [&](const Metric& m) { return m.name == name; });
}

void Result::check(bool ok, const std::string& what) {
  if (ok) {
    ++attempted_;
  } else {
    fail(what);
  }
}

void Result::fail(const std::string& what) {
  ++attempted_;
  ++failed_;
  if (printed_ < 20) {
    std::printf("# MISMATCH: %s\n", what.c_str());
  } else if (printed_ == 20) {
    std::printf("# MISMATCH: (further mismatches counted, not printed)\n");
  }
  ++printed_;
}

std::string Result::json() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(
                                   attempted_, 1));
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
           format_double(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

std::string format_double(double v) {
  if (!std::isfinite(v)) {
    return "0";  // JSON has no NaN or infinity
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string host_json(const std::string& commit, const std::string& digest) {
  namespace simd = bfhrf::util::simd;
  std::string out = "{\"nproc\": ";
  out += std::to_string(std::thread::hardware_concurrency());
  out += ", \"compiler\": \"" PERFBENCH_CXX_ID " " PERFBENCH_CXX_VERSION "\"";
  out += ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
  out += ", \"simd\": \"" + std::string(simd::level_name(simd::active_level())) +
         "\"";
  out += ", \"obs_compiled\": ";
  out += bfhrf::obs::compiled_in() ? "true" : "false";
  out += ", \"commit\": \"" + commit + "\", \"source_digest\": \"" + digest +
         "\"}";
  return out;
}

// --- obs registry readers ---------------------------------------------------

std::uint64_t obs_counter(const bfhrf::obs::Snapshot& snap,
                          std::string_view name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) {
      return v;
    }
  }
  return 0;
}

const bfhrf::obs::HistogramSnapshot* obs_histogram(
    const bfhrf::obs::Snapshot& snap, std::string_view name) {
  for (const auto& [n, h] : snap.histograms) {
    if (n == name) {
      return &h;
    }
  }
  return nullptr;
}

double obs_hist_sum(const bfhrf::obs::Snapshot& snap, std::string_view name) {
  const bfhrf::obs::HistogramSnapshot* h = obs_histogram(snap, name);
  return h != nullptr ? h->sum : 0.0;
}

double obs_hist_quantile(const bfhrf::obs::Snapshot& snap,
                         std::string_view name, double q) {
  const bfhrf::obs::HistogramSnapshot* h = obs_histogram(snap, name);
  if (h == nullptr || h->count == 0) {
    return 0.0;
  }
  const double target = q * static_cast<double>(h->count);
  double seen = 0.0;
  for (std::size_t b = 0; b < h->buckets.size(); ++b) {
    const auto in_bucket = static_cast<double>(h->buckets[b]);
    if (in_bucket > 0 && seen + in_bucket >= target) {
      // Bucket b spans (edges[b-1], edges[b]]; clamp to the observed range.
      const double lo = std::max(b == 0 ? h->min : h->edges[b - 1], h->min);
      const double hi =
          std::min(b < h->edges.size() ? h->edges[b] : h->max, h->max);
      return lo + (hi - lo) * ((target - seen) / in_bucket);
    }
    seen += in_bucket;
  }
  return h->max;
}

}  // namespace perfbench
