// BoundedQueue: a bounded, blocking multi-producer/multi-consumer queue.
//
// The query daemon's admission queue (serve/server.hpp): connection reader
// threads push decoded requests while the worker threads pop and answer
// them, so the queue bound is the only buffering and a burst backpressures
// the sockets instead of growing memory. The engines' ingest does not use
// it: lanes claim trees straight from their input (core/bfhrf).
//
// Semantics:
//  * push() blocks while the queue is full; returns false once the queue is
//    closed or aborted (the item is dropped — production should stop).
//  * pop() blocks while the queue is empty and open; returns false once the
//    queue is closed AND drained, or aborted.
//  * close() ends production: pending items drain, further pushes fail.
//  * abort() tears the queue down: pending items are discarded and every
//    blocked producer/consumer wakes up with `false` (so a failing consumer
//    cannot leave a producer blocked on a full queue).
//
// Observability (docs/OBSERVABILITY.md, parallel.pipeline.queue.*, names
// kept from the retired ingest pipeline because perfbench reads two of
// them): queue depth gauge sampled on push, producer-stall and
// consumer-wait histograms recording only *blocking* waits, and push/pop
// counters. All increments go through thread-local obs sinks, so producers
// and consumers never contend on instrumentation.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace bfhrf::parallel {

namespace detail {
struct QueueMetrics {
  obs::Counter pushes = obs::counter("parallel.pipeline.queue.pushes");
  obs::Counter pops = obs::counter("parallel.pipeline.queue.pops");
  obs::Counter producer_stalls =
      obs::counter("parallel.pipeline.queue.producer_stalls");
  obs::Counter consumer_waits =
      obs::counter("parallel.pipeline.queue.consumer_waits");
  obs::Gauge depth = obs::gauge("parallel.pipeline.queue.depth");
  obs::Histogram stall_seconds =
      obs::histogram("parallel.pipeline.queue.producer_stall_seconds");
  obs::Histogram wait_seconds =
      obs::histogram("parallel.pipeline.queue.consumer_wait_seconds");
};

inline const QueueMetrics& queue_metrics() {
  static const QueueMetrics m;
  return m;
}
}  // namespace detail

template <typename T>
class BoundedQueue {
 public:
  /// `capacity` >= 1 items may be resident before producers block.
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocking push; false if the queue is closed or aborted (item dropped).
  bool push(T&& item) {
    const detail::QueueMetrics& m = detail::queue_metrics();
    std::size_t depth;
    {
      std::unique_lock lock(mu_);
      if (items_.size() >= capacity_ && !closed_ && !aborted_) {
        m.producer_stalls.inc();
        const util::WallTimer stall;
        cv_space_.wait(lock, [this] {
          return items_.size() < capacity_ || closed_ || aborted_;
        });
        m.stall_seconds.observe(stall.seconds());
      }
      if (closed_ || aborted_) {
        return false;
      }
      items_.push_back(std::move(item));
      depth = items_.size();
    }
    m.pushes.inc();
    m.depth.set(static_cast<double>(depth));
    cv_item_.notify_one();
    return true;
  }

  /// Blocking pop; false once closed-and-drained, or aborted.
  bool pop(T& out) {
    const detail::QueueMetrics& m = detail::queue_metrics();
    {
      std::unique_lock lock(mu_);
      if (items_.empty() && !closed_ && !aborted_) {
        m.consumer_waits.inc();
        const util::WallTimer wait;
        cv_item_.wait(lock, [this] {
          return !items_.empty() || closed_ || aborted_;
        });
        m.wait_seconds.observe(wait.seconds());
      }
      if (aborted_ || items_.empty()) {
        return false;  // aborted, or closed and drained
      }
      out = std::move(items_.front());
      items_.pop_front();
    }
    m.pops.inc();
    cv_space_.notify_one();
    return true;
  }

  /// End production: pending items drain, then pops return false.
  void close() {
    {
      const std::lock_guard lock(mu_);
      closed_ = true;
    }
    cv_item_.notify_all();
    cv_space_.notify_all();
  }

  /// Tear down: discard pending items; all blocked callers return false.
  void abort() {
    {
      const std::lock_guard lock(mu_);
      aborted_ = true;
      items_.clear();
    }
    cv_item_.notify_all();
    cv_space_.notify_all();
  }

  [[nodiscard]] bool aborted() const {
    const std::lock_guard lock(mu_);
    return aborted_;
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard lock(mu_);
    return items_.size();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_item_;   ///< signalled when an item arrives
  std::condition_variable cv_space_;  ///< signalled when space frees up
  std::deque<T> items_;
  bool closed_ = false;
  bool aborted_ = false;
};

}  // namespace bfhrf::parallel
