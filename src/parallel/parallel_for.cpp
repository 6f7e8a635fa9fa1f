#include "parallel/parallel_for.hpp"

#include <algorithm>
#include <atomic>
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

void run_lanes(std::size_t lanes,
               const std::function<void(std::size_t)>& lane) {
  if (lanes == 1) {
    lane(0);
    return;
  }
  std::exception_ptr first_error;
  std::mutex err_mu;
  {
    std::vector<std::jthread> threads;
    threads.reserve(lanes);
    for (std::size_t rank = 0; rank < lanes; ++rank) {
      threads.emplace_back([&, rank] {
        // Flush this lane's sink before the join, not only at thread exit.
        const obs::ScopedThreadSink sink_flush;
        try {
          lane(rank);
        } catch (...) {
          const std::lock_guard lock(err_mu);
          if (!first_error) {
            first_error = std::current_exception();
          }
        }
      });
    }
    // lanes join here
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

void parallel_for_ranked(
    std::size_t begin, std::size_t end, std::size_t threads,
    const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t grain) {
  if (begin >= end) {
    return;
  }
  g_pf_invocations.inc();
  const std::size_t lanes = lane_count(end - begin, threads, grain);
  // One lane claims the whole range as one chunk, in index order.
  const std::size_t step = lanes == 1 ? end - begin : grain;
  std::atomic<std::size_t> cursor{begin};
  run_lanes(lanes, [&](std::size_t rank) {
    bool claimed = false;
    for (std::size_t first = cursor.fetch_add(step, std::memory_order_relaxed);
         first < end;
         first = cursor.fetch_add(step, std::memory_order_relaxed)) {
      const std::size_t last = std::min(end, first + step);
      g_pf_chunks.inc();
      g_pf_items.inc(last - first);
      // Every claim after a lane's first came off the shared cursor: a
      // chunk steal in the work-stealing sense.
      if (claimed) {
        g_pf_steals.inc();
      }
      claimed = true;
      for (std::size_t i = first; i < last; ++i) {
        fn(rank, i);
      }
    }
  });
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t threads,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain) {
  parallel_for_ranked(
      begin, end, threads,
      [&fn](std::size_t, std::size_t i) { fn(i); }, grain);
}

}  // namespace bfhrf::parallel
