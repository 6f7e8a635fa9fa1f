// parallel_for: fan an index range already in memory out over a fixed set
// of lanes.
//
// This is the C++ analogue of the Python `multiprocessing` layer the paper
// builds DSMP and BFHRF on: parallelism is applied "at the comparison
// level" — whole trees, or blocks of tree pairs, are the work items — so
// the decomposition here is a blocked index range handed out by one atomic
// cursor: each lane claims the next `grain` items the moment it frees up.
//
// Design notes (C++ Core Guidelines CP.*):
//  * the calling thread is lane 0; the other lanes are std::jthread and
//    are joined before the call returns (RAII);
//  * exceptions thrown by `fn` are captured and the first one is rethrown
//    on the caller's thread, so failures are not silently swallowed;
//  * a single lane executes inline with zero synchronization, which keeps
//    the sequential baselines honest in benchmarks.
//
// Observability: every lane flushes its thread-local metrics before the
// call returns, so a snapshot taken after it sees every increment `fn`
// made. parallel.for.* counts invocations, items, chunks and chunk steals.
#pragma once

#include <cstddef>
#include <functional>

namespace bfhrf::parallel {

/// Number of threads to use for a requested count (0 = hardware default).
[[nodiscard]] std::size_t effective_threads(std::size_t requested) noexcept;

/// Number of lanes parallel_for runs for `items` items: the effective
/// thread count, but never more lanes than there are chunks of `grain`.
[[nodiscard]] std::size_t lane_count(std::size_t items, std::size_t threads,
                                     std::size_t grain = 16) noexcept;

/// Apply `fn(i)` for i in [begin, end) across `threads` threads.
/// Work is handed out in chunks of `grain` via an atomic cursor, so uneven
/// per-item cost (trees differ in size) still balances.
/// A single lane runs inline. Exceptions propagate to the caller.
void parallel_for(std::size_t begin, std::size_t end, std::size_t threads,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain = 16);

/// Like parallel_for, but `fn(lane, i)` with lane in [0, lane_count) — for
/// per-lane scratch.
void parallel_for_ranked(
    std::size_t begin, std::size_t end, std::size_t threads,
    const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t grain = 16);

}  // namespace bfhrf::parallel
