// Single-producer / multi-consumer pipeline on top of BoundedQueue.
//
// pipeline_run() is the structured driver the streaming engines use: the
// CALLING thread is the producer (it owns the non-thread-safe input, e.g. a
// file being framed into Newick records), `consumers` worker threads drain
// the queue concurrently. The producer never waits for an item to finish
// and consumers never wait for a read burst — the bounded queue is the
// only coupling, so input and per-item work (for BFHRF: parsing,
// extraction and hashing, on every worker) overlap, and the queue depth
// gauge shows which side is the bottleneck. Callers queue batches of
// items, so a wake-up is paid per batch rather than per item.
//
// Error protocol:
//  * a consumer exception aborts the queue — the producer's next emit()
//    returns false and production stops; the first exception is rethrown on
//    the calling thread after all consumers join (mirrors ThreadPool).
//  * a producer exception aborts the queue (unblocking consumers) and
//    rethrows after the join; a consumer exception takes precedence.
//
// With `consumers == 0` the pipeline degenerates to a zero-synchronization
// inline loop: emit() invokes the consumer directly on the calling thread.
// This keeps the sequential baseline honest, exactly like parallel_for.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <latch>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "parallel/bounded_queue.hpp"

namespace bfhrf::parallel {

namespace detail {
struct PipelineMetrics {
  obs::Counter runs = obs::counter("parallel.pipeline.runs");
  obs::Counter items = obs::counter("parallel.pipeline.items");
};

inline const PipelineMetrics& pipeline_metrics() {
  static const PipelineMetrics m;
  return m;
}
}  // namespace detail

/// Emit callback handed to the producer: returns false when the pipeline
/// has aborted and production should stop.
template <typename T>
using PipelineEmit = std::function<bool(T&&)>;

/// Run `produce(emit)` on the calling thread against `consumers` worker
/// threads each looping `consume(rank, item)`. Blocks until the stream is
/// drained; rethrows the first worker (or producer) exception.
///
/// `drain(rank)` — when non-null — is a per-worker epilogue: it runs ON
/// EACH WORKER THREAD after EVERY worker has finished its consume loop (an
/// internal latch provides the barrier), so a drain callback may safely
/// read data produced by other workers' consume calls. The sharded BFHRF
/// build uses this for its insert phase: workers route keys into
/// per-worker buckets while consuming, then each drain lane inserts its
/// shard range across all buckets — reusing the pipeline's threads with no
/// second spawn. Drains are skipped entirely (on every worker) if the
/// producer or any consumer threw; the latch is counted down on all paths,
/// so an exception can never deadlock a waiting drain. Drain exceptions
/// follow the consumer first-error protocol. In inline mode
/// (consumers == 0) the drain runs once, as drain(0), after production.
template <typename T>
void pipeline_run(std::size_t consumers, std::size_t queue_capacity,
                  const std::function<void(const PipelineEmit<T>&)>& produce,
                  const std::function<void(std::size_t, T&)>& consume,
                  const std::function<void(std::size_t)>& drain = nullptr) {
  const detail::PipelineMetrics& m = detail::pipeline_metrics();
  // Touch the queue-metric family too, so every parallel.pipeline.* series
  // is registered (and exported, at zero) even when inline mode or an
  // always-warm queue means some are never incremented.
  (void)detail::queue_metrics();
  m.runs.inc();

  if (consumers == 0) {
    // Inline mode: no queue, no threads, no synchronization.
    const PipelineEmit<T> emit = [&](T&& item) {
      T local = std::move(item);
      consume(0, local);
      m.items.inc();
      return true;
    };
    produce(emit);
    if (drain) {
      drain(0);
    }
    return;
  }

  BoundedQueue<T> queue(queue_capacity);
  std::exception_ptr first_error;
  std::mutex err_mu;
  std::latch consumed(static_cast<std::ptrdiff_t>(consumers));
  std::atomic<bool> failed{false};

  const auto worker = [&](std::size_t rank) {
    const obs::ScopedThreadSink sink_flush;
    T item;
    bool counted = false;
    try {
      while (queue.pop(item)) {
        consume(rank, item);
        m.items.inc();
      }
      counted = true;
      consumed.count_down();
      if (drain) {
        // Exiting the pop loop requires a prior close() or abort(); in the
        // failure case `failed` is set before the abort, so the post-wait
        // check cannot miss an error that unblocked this worker.
        consumed.wait();
        if (!failed.load(std::memory_order_acquire)) {
          drain(rank);
        }
      }
    } catch (...) {
      {
        const std::lock_guard lock(err_mu);
        if (!first_error) {
          first_error = std::current_exception();
        }
      }
      failed.store(true, std::memory_order_release);
      // Wake the producer (possibly blocked on a full queue) and the other
      // consumers; pending items are dropped — the run is failing anyway.
      queue.abort();
      if (!counted) {
        consumed.count_down();
      }
    }
  };

  std::exception_ptr producer_error;
  {
    std::vector<std::jthread> workers;
    workers.reserve(consumers);
    for (std::size_t rank = 0; rank < consumers; ++rank) {
      workers.emplace_back([&worker, rank] { worker(rank); });
    }
    const PipelineEmit<T> emit = [&queue](T&& item) {
      return queue.push(std::move(item));
    };
    try {
      produce(emit);
    } catch (...) {
      producer_error = std::current_exception();
      failed.store(true, std::memory_order_release);
      queue.abort();
    }
    queue.close();
    // workers join here
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
  if (producer_error) {
    std::rethrow_exception(producer_error);
  }
}

}  // namespace bfhrf::parallel
