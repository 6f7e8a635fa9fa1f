#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <mutex>
#include <ostream>
#include <sstream>
#include <unordered_map>

namespace bfhrf::obs {
namespace {

std::atomic<bool> g_runtime_enabled{true};

HistogramSpec sanitize(HistogramSpec spec) {
  if (!(spec.min > 0)) {
    spec.min = 1e-6;
  }
  if (!(spec.factor > 1.0)) {
    spec.factor = 2.0;
  }
  spec.buckets = std::clamp<std::size_t>(spec.buckets, 1, 512);
  return spec;
}

}  // namespace

std::vector<double> bucket_edges(const HistogramSpec& spec_in) {
  const HistogramSpec spec = sanitize(spec_in);
  std::vector<double> edges(spec.buckets);
  double e = spec.min;
  for (std::size_t i = 0; i < spec.buckets; ++i) {
    edges[i] = e;
    e *= spec.factor;
  }
  return edges;
}

void set_enabled(bool on) noexcept {
  g_runtime_enabled.store(on, std::memory_order_relaxed);
}

bool enabled() noexcept {
  return compiled_in() && g_runtime_enabled.load(std::memory_order_relaxed);
}

#if BFHRF_OBS_ENABLED

namespace {

constexpr std::size_t kMaxSpans = 8192;

struct HistAgg {
  std::vector<std::uint64_t> buckets;  ///< edges.size()+1 entries
  std::uint64_t count = 0;
  double sum = 0;
  double vmin = std::numeric_limits<double>::infinity();
  double vmax = -std::numeric_limits<double>::infinity();
};

struct Registry {
  std::mutex mu;

  std::unordered_map<std::string, std::uint32_t> counter_ids;
  std::vector<std::string> counter_names;
  std::vector<std::uint64_t> counters;

  std::unordered_map<std::string, std::uint32_t> gauge_ids;
  std::vector<std::string> gauge_names;
  std::vector<double> gauges;

  std::unordered_map<std::string, std::uint32_t> hist_ids;
  std::vector<std::string> hist_names;
  std::vector<std::vector<double>> hist_edges;  ///< immutable per id
  std::vector<HistAgg> hists;

  std::vector<SpanRecord> spans;
  std::uint64_t spans_dropped = 0;

  /// Bumped by reset(); sinks stamped with an older epoch discard on flush.
  std::atomic<std::uint64_t> epoch{0};

  std::atomic<std::uint32_t> next_thread_ord{0};
  std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
};

// Leaked intentionally: thread-local sinks flush from thread-exit
// destructors whose order against static destruction is unspecified.
Registry& reg() {
  static Registry* const r = new Registry();
  return *r;
}

struct LocalHist {
  bool init = false;
  std::vector<double> edges;
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  double sum = 0;
  double vmin = std::numeric_limits<double>::infinity();
  double vmax = -std::numeric_limits<double>::infinity();
};

struct ThreadSink {
  std::vector<std::uint64_t> counters;
  std::vector<LocalHist> hists;
  std::uint64_t epoch = 0;
  bool dirty = false;

  ~ThreadSink() { flush_thread(); }
};

ThreadSink& sink() {
  thread_local ThreadSink s;
  return s;
}

void touch(ThreadSink& s) {
  if (!s.dirty) {
    s.dirty = true;
    s.epoch = reg().epoch.load(std::memory_order_relaxed);
  }
}

std::uint32_t thread_ordinal() {
  thread_local const std::uint32_t ord =
      reg().next_thread_ord.fetch_add(1, std::memory_order_relaxed);
  return ord;
}

}  // namespace

namespace detail {

void counter_inc(std::uint32_t id, std::uint64_t n) noexcept {
  if (!g_runtime_enabled.load(std::memory_order_relaxed)) {
    return;
  }
  ThreadSink& s = sink();
  touch(s);
  if (s.counters.size() <= id) {
    s.counters.resize(id + 1, 0);
  }
  s.counters[id] += n;
}

void gauge_set(std::uint32_t id, double v) noexcept {
  if (!g_runtime_enabled.load(std::memory_order_relaxed)) {
    return;
  }
  Registry& r = reg();
  const std::lock_guard lock(r.mu);
  r.gauges[id] = v;
}

void histogram_observe(std::uint32_t id, double v) noexcept {
  if (!g_runtime_enabled.load(std::memory_order_relaxed)) {
    return;
  }
  ThreadSink& s = sink();
  touch(s);
  if (s.hists.size() <= id) {
    s.hists.resize(id + 1);
  }
  LocalHist& h = s.hists[id];
  if (!h.init) {
    Registry& r = reg();
    const std::lock_guard lock(r.mu);
    h.edges = r.hist_edges[id];
    h.buckets.assign(h.edges.size() + 1, 0);
    h.init = true;
  }
  const auto it = std::lower_bound(h.edges.begin(), h.edges.end(), v);
  const auto idx = static_cast<std::size_t>(it - h.edges.begin());
  ++h.buckets[idx];
  ++h.count;
  h.sum += v;
  h.vmin = std::min(h.vmin, v);
  h.vmax = std::max(h.vmax, v);
}

}  // namespace detail

Counter counter(std::string_view name) {
  Registry& r = reg();
  const std::lock_guard lock(r.mu);
  const auto [it, inserted] = r.counter_ids.try_emplace(
      std::string(name), static_cast<std::uint32_t>(r.counters.size()));
  if (inserted) {
    r.counter_names.emplace_back(name);
    r.counters.push_back(0);
  }
  return Counter(it->second);
}

Gauge gauge(std::string_view name) {
  Registry& r = reg();
  const std::lock_guard lock(r.mu);
  const auto [it, inserted] = r.gauge_ids.try_emplace(
      std::string(name), static_cast<std::uint32_t>(r.gauges.size()));
  if (inserted) {
    r.gauge_names.emplace_back(name);
    r.gauges.push_back(0.0);
  }
  return Gauge(it->second);
}

Histogram histogram(std::string_view name, HistogramSpec spec) {
  Registry& r = reg();
  const std::lock_guard lock(r.mu);
  const auto [it, inserted] = r.hist_ids.try_emplace(
      std::string(name), static_cast<std::uint32_t>(r.hists.size()));
  if (inserted) {
    r.hist_names.emplace_back(name);
    auto edges = bucket_edges(spec);
    r.hists.push_back(HistAgg{
        .buckets = std::vector<std::uint64_t>(edges.size() + 1, 0)});
    r.hist_edges.push_back(std::move(edges));
  }
  return Histogram(it->second);
}

TraceSpan::TraceSpan(std::string_view name) noexcept {
  if (enabled()) {
    name_ = name;
    start_ = std::chrono::steady_clock::now();
    active_ = true;
  }
}

TraceSpan::~TraceSpan() {
  if (!active_) {
    return;
  }
  const auto end = std::chrono::steady_clock::now();
  const std::uint32_t ord = thread_ordinal();
  Registry& r = reg();
  const auto start_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(start_ - r.t0)
          .count());
  const auto dur_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
          .count());
  const std::lock_guard lock(r.mu);
  if (r.spans.size() < kMaxSpans) {
    r.spans.push_back(SpanRecord{std::string(name_), start_ns, dur_ns, ord});
  } else {
    ++r.spans_dropped;
  }
}

void flush_thread() noexcept {
  ThreadSink& s = sink();
  if (!s.dirty) {
    return;
  }
  Registry& r = reg();
  {
    const std::lock_guard lock(r.mu);
    if (s.epoch == r.epoch.load(std::memory_order_relaxed)) {
      for (std::size_t id = 0; id < s.counters.size(); ++id) {
        r.counters[id] += s.counters[id];
      }
      for (std::size_t id = 0; id < s.hists.size(); ++id) {
        const LocalHist& h = s.hists[id];
        if (h.count == 0) {
          continue;
        }
        HistAgg& a = r.hists[id];
        for (std::size_t b = 0; b < h.buckets.size(); ++b) {
          a.buckets[b] += h.buckets[b];
        }
        a.count += h.count;
        a.sum += h.sum;
        a.vmin = std::min(a.vmin, h.vmin);
        a.vmax = std::max(a.vmax, h.vmax);
      }
    }
  }
  std::fill(s.counters.begin(), s.counters.end(), 0);
  for (LocalHist& h : s.hists) {
    std::fill(h.buckets.begin(), h.buckets.end(), 0);
    h.count = 0;
    h.sum = 0;
    h.vmin = std::numeric_limits<double>::infinity();
    h.vmax = -std::numeric_limits<double>::infinity();
  }
  s.dirty = false;
}

Snapshot snapshot() {
  flush_thread();
  Snapshot out;
  out.enabled = enabled();
  Registry& r = reg();
  const std::lock_guard lock(r.mu);
  out.counters.reserve(r.counters.size());
  for (std::size_t id = 0; id < r.counters.size(); ++id) {
    out.counters.emplace_back(r.counter_names[id], r.counters[id]);
  }
  out.gauges.reserve(r.gauges.size());
  for (std::size_t id = 0; id < r.gauges.size(); ++id) {
    out.gauges.emplace_back(r.gauge_names[id], r.gauges[id]);
  }
  out.histograms.reserve(r.hists.size());
  for (std::size_t id = 0; id < r.hists.size(); ++id) {
    const HistAgg& a = r.hists[id];
    HistogramSnapshot h;
    h.edges = r.hist_edges[id];
    h.buckets = a.buckets;
    h.count = a.count;
    h.sum = a.sum;
    h.min = a.count == 0 ? 0.0 : a.vmin;
    h.max = a.count == 0 ? 0.0 : a.vmax;
    out.histograms.emplace_back(r.hist_names[id], std::move(h));
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(out.counters.begin(), out.counters.end(), by_name);
  std::sort(out.gauges.begin(), out.gauges.end(), by_name);
  std::sort(out.histograms.begin(), out.histograms.end(), by_name);
  out.spans = r.spans;
  out.spans_dropped = r.spans_dropped;
  return out;
}

std::uint64_t counter_value(std::string_view name) {
  flush_thread();
  Registry& r = reg();
  const std::lock_guard lock(r.mu);
  const auto it = r.counter_ids.find(std::string(name));
  return it == r.counter_ids.end() ? 0 : r.counters[it->second];
}

double gauge_value(std::string_view name) {
  Registry& r = reg();
  const std::lock_guard lock(r.mu);
  const auto it = r.gauge_ids.find(std::string(name));
  return it == r.gauge_ids.end() ? 0.0 : r.gauges[it->second];
}

void reset() noexcept {
  Registry& r = reg();
  {
    const std::lock_guard lock(r.mu);
    std::fill(r.counters.begin(), r.counters.end(), 0);
    std::fill(r.gauges.begin(), r.gauges.end(), 0.0);
    for (HistAgg& a : r.hists) {
      std::fill(a.buckets.begin(), a.buckets.end(), 0);
      a.count = 0;
      a.sum = 0;
      a.vmin = std::numeric_limits<double>::infinity();
      a.vmax = -std::numeric_limits<double>::infinity();
    }
    r.spans.clear();
    r.spans_dropped = 0;
    r.epoch.fetch_add(1, std::memory_order_relaxed);
  }
  // Drop this thread's pending deltas too (its epoch is now stale, but
  // clearing eagerly keeps the next flush cheap).
  ThreadSink& s = sink();
  std::fill(s.counters.begin(), s.counters.end(), 0);
  for (LocalHist& h : s.hists) {
    std::fill(h.buckets.begin(), h.buckets.end(), 0);
    h.count = 0;
    h.sum = 0;
    h.vmin = std::numeric_limits<double>::infinity();
    h.vmax = -std::numeric_limits<double>::infinity();
  }
  s.dirty = false;
}

#else  // !BFHRF_OBS_ENABLED — inert stubs; the API stays link-compatible.

Counter counter(std::string_view) { return Counter(); }
Gauge gauge(std::string_view) { return Gauge(); }
Histogram histogram(std::string_view, HistogramSpec) { return Histogram(); }

TraceSpan::TraceSpan(std::string_view) noexcept {}
TraceSpan::~TraceSpan() = default;

void flush_thread() noexcept {}

Snapshot snapshot() {
  Snapshot out;
  out.enabled = false;
  return out;
}

std::uint64_t counter_value(std::string_view) { return 0; }

double gauge_value(std::string_view) { return 0.0; }

void reset() noexcept {}

#endif  // BFHRF_OBS_ENABLED

// --- JSON export (pure formatting; compiled in both modes) ------------------

namespace {

void write_escaped(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      case '\r':
        os << "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void write_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  if (v == std::floor(v) && std::abs(v) < 9.0e15) {
    os << static_cast<long long>(v);
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

}  // namespace

void dump(std::ostream& os, const Snapshot& snap) {
  os << "{\n";
  os << "  \"version\": 1,\n";
  os << "  \"compiled\": " << (snap.compiled ? "true" : "false") << ",\n";
  os << "  \"enabled\": " << (snap.enabled ? "true" : "false") << ",\n";

  os << "  \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    os << (i == 0 ? "\n    " : ",\n    ");
    write_escaped(os, snap.counters[i].first);
    os << ": " << snap.counters[i].second;
  }
  os << (snap.counters.empty() ? "},\n" : "\n  },\n");

  os << "  \"gauges\": {";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    os << (i == 0 ? "\n    " : ",\n    ");
    write_escaped(os, snap.gauges[i].first);
    os << ": ";
    write_number(os, snap.gauges[i].second);
  }
  os << (snap.gauges.empty() ? "},\n" : "\n  },\n");

  os << "  \"histograms\": {";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& [name, h] = snap.histograms[i];
    os << (i == 0 ? "\n    " : ",\n    ");
    write_escaped(os, name);
    os << ": {\"count\": " << h.count << ", \"sum\": ";
    write_number(os, h.sum);
    os << ", \"min\": ";
    write_number(os, h.min);
    os << ", \"max\": ";
    write_number(os, h.max);
    os << ", \"edges\": [";
    for (std::size_t j = 0; j < h.edges.size(); ++j) {
      if (j != 0) {
        os << ", ";
      }
      write_number(os, h.edges[j]);
    }
    os << "], \"buckets\": [";
    for (std::size_t j = 0; j < h.buckets.size(); ++j) {
      if (j != 0) {
        os << ", ";
      }
      os << h.buckets[j];
    }
    os << "]}";
  }
  os << (snap.histograms.empty() ? "},\n" : "\n  },\n");

  os << "  \"spans\": [";
  for (std::size_t i = 0; i < snap.spans.size(); ++i) {
    const SpanRecord& s = snap.spans[i];
    os << (i == 0 ? "\n    " : ",\n    ");
    os << "{\"name\": ";
    write_escaped(os, s.name);
    os << ", \"thread\": " << s.thread
       << ", \"start_us\": " << s.start_ns / 1000
       << ", \"dur_us\": " << s.dur_ns / 1000 << "}";
  }
  os << (snap.spans.empty() ? "],\n" : "\n  ],\n");

  os << "  \"spans_dropped\": " << snap.spans_dropped << "\n";
  os << "}\n";
}

void dump(std::ostream& os) { dump(os, snapshot()); }

std::string dump_string(const Snapshot& snap) {
  std::ostringstream os;
  dump(os, snap);
  return os.str();
}

std::string dump_string() { return dump_string(snapshot()); }

}  // namespace bfhrf::obs
