#include "parallel/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace bfhrf::parallel {
namespace {

// Chunk handout over the atomic cursor.
const obs::Counter g_pf_invocations = obs::counter("parallel.for.invocations");
const obs::Counter g_pf_items = obs::counter("parallel.for.items");
const obs::Counter g_pf_chunks = obs::counter("parallel.for.chunks");
const obs::Counter g_pf_steals = obs::counter("parallel.for.steals");

}  // namespace

std::size_t effective_threads(std::size_t requested) noexcept {
  if (requested != 0) {
    return requested;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::size_t lane_count(std::size_t items, std::size_t threads,
                       std::size_t grain) noexcept {
  return std::min(effective_threads(threads), (items + grain - 1) / grain);
}

void parallel_for_ranked(
    std::size_t begin, std::size_t end, std::size_t threads,
    const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t grain) {
  if (begin >= end) {
    return;
  }
  g_pf_invocations.inc();
  const std::size_t t = lane_count(end - begin, threads, grain);
  if (t <= 1) {
    for (std::size_t i = begin; i < end; ++i) {
      fn(0, i);
    }
    g_pf_items.inc(end - begin);
    g_pf_chunks.inc();
    return;
  }

  std::atomic<std::size_t> cursor{begin};
  std::exception_ptr first_error;
  std::mutex err_mu;

  const auto body = [&](std::size_t rank) {
    // Flush this worker's sink when the body unwinds (normally or not);
    // ranks > 0 also flush via thread-exit, rank 0 runs on the caller.
    const obs::ScopedThreadSink sink_flush;
    std::uint64_t chunks = 0;
    std::uint64_t items = 0;
    try {
      while (true) {
        const std::size_t chunk_begin =
            cursor.fetch_add(grain, std::memory_order_relaxed);
        if (chunk_begin >= end) {
          break;
        }
        const std::size_t chunk_end = std::min(end, chunk_begin + grain);
        ++chunks;
        items += chunk_end - chunk_begin;
        for (std::size_t i = chunk_begin; i < chunk_end; ++i) {
          fn(rank, i);
        }
      }
    } catch (...) {
      const std::lock_guard lock(err_mu);
      if (!first_error) {
        first_error = std::current_exception();
      }
    }
    if (chunks != 0) {
      g_pf_chunks.inc(chunks);
      g_pf_items.inc(items);
      // Everything after a worker's first claim came off the shared
      // cursor: chunk steals in the work-stealing sense.
      g_pf_steals.inc(chunks - 1);
    }
  };

  {
    std::vector<std::jthread> workers;
    workers.reserve(t - 1);
    for (std::size_t rank = 1; rank < t; ++rank) {
      workers.emplace_back([&body, rank] { body(rank); });
    }
    body(0);
    // workers join here
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t threads,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain) {
  parallel_for_ranked(
      begin, end, threads,
      [&fn](std::size_t, std::size_t i) { fn(i); }, grain);
}

}  // namespace bfhrf::parallel
