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
//    the calling thread after all consumers join (as in parallel_for).
//  * a producer exception aborts the queue (unblocking consumers) and
//    rethrows after the join; a consumer exception takes precedence.
//
// With `consumers == 0` the pipeline degenerates to a zero-synchronization
// inline loop: emit() invokes the consumer directly on the calling thread.
// This keeps the sequential baseline honest, exactly like parallel_for.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
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
/// drained and every worker has joined, so anything the consumers wrote is
/// visible to the caller on return; rethrows the first worker (or
/// producer) exception.
template <typename T>
void pipeline_run(std::size_t consumers, std::size_t queue_capacity,
                  const std::function<void(const PipelineEmit<T>&)>& produce,
                  const std::function<void(std::size_t, T&)>& consume) {
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
    return;
  }

  BoundedQueue<T> queue(queue_capacity);
  std::exception_ptr first_error;
  std::mutex err_mu;

  const auto worker = [&](std::size_t rank) {
    const obs::ScopedThreadSink sink_flush;
    T item;
    try {
      while (queue.pop(item)) {
        consume(rank, item);
        m.items.inc();
      }
    } catch (...) {
      {
        const std::lock_guard lock(err_mu);
        if (!first_error) {
          first_error = std::current_exception();
        }
      }
      // Wake the producer (possibly blocked on a full queue) and the other
      // consumers; pending items are dropped — the run is failing anyway.
      queue.abort();
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
