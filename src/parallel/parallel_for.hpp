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
//  * run_lanes is the one routine that starts lanes: with more than one,
//    every lane is a std::jthread and the calling thread only joins them
//    before the call returns (RAII), so no lane's allocations land on the
//    caller's thread;
//  * exceptions thrown by a lane are captured and the first one is
//    rethrown on the caller's thread once every lane has joined, so
//    failures are not silently swallowed;
//  * a single lane executes inline on the caller with zero
//    synchronization, which keeps the sequential baselines honest in
//    benchmarks.
//
// Observability: every spawned lane flushes its thread-local metrics
// before the call returns, so a snapshot taken after it sees every
// increment `fn` made. parallel.for.* counts the range calls' invocations,
// items, chunks and chunk steals; run_lanes alone counts nothing.
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

/// Run `lane(rank)` once for every rank in [0, lanes). One lane runs
/// inline on the calling thread; more each run on a spawned thread while
/// the caller waits. Returns once every lane has finished, and rethrows
/// the first exception a lane threw.
void run_lanes(std::size_t lanes,
               const std::function<void(std::size_t)>& lane);

/// Apply `fn(i)` for i in [begin, end) across `threads` threads.
/// Work is handed out in chunks of `grain` via an atomic cursor, so uneven
/// per-item cost (trees differ in size) still balances.
/// A single lane runs inline, in index order. Exceptions propagate to the
/// caller.
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
