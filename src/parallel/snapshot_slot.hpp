// SnapshotSlot: RCU-style publish/acquire of immutable versioned values.
//
// The query server (src/serve) serves a built BFH index to many concurrent
// readers while a writer occasionally publishes a replacement (a rebuilt
// or reloaded index). The classic answer is
// read-copy-update: readers acquire a reference to the CURRENT version
// without taking any lock the writer can hold, the writer swaps in the next
// version with one atomic pointer store, and a retired version is destroyed
// only when its last reader drains.
//
// This is exactly the shared_ptr reclamation model, so the slot is a thin
// veneer over std::atomic<std::shared_ptr<const Versioned>>:
//
//  * acquire() — one atomic load plus a reference-count increment. Never
//    blocks on publish(); an in-flight reader keeps its snapshot alive (and
//    bit-identical) for as long as it holds the handle, regardless of how
//    many publishes happen meanwhile.
//  * publish() — builds the next Versioned wrapper and atomically stores
//    it. The PREVIOUS version is not torn down here: its control block
//    lives until the last outstanding handle releases, which is the
//    epoch-drain retirement the server relies on ("old snapshots retired
//    when their last reader drains").
//
// Versions are assigned by the slot (monotonic from 1), so readers can tag
// results with the exact index generation that produced them.
//
// Observability (docs/OBSERVABILITY.md): parallel.snapshot.publishes
// counter and parallel.snapshot.version gauge — both writer-side only, so
// the read path stays instrumentation-free.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "obs/metrics.hpp"

namespace bfhrf::parallel {

namespace detail {
struct SnapshotMetrics {
  obs::Counter publishes = obs::counter("parallel.snapshot.publishes");
  obs::Gauge version = obs::gauge("parallel.snapshot.version");
};

inline const SnapshotMetrics& snapshot_metrics() {
  static const SnapshotMetrics m;
  return m;
}
}  // namespace detail

template <typename T>
class SnapshotSlot {
  struct Versioned {
    std::shared_ptr<const T> value;
    std::uint64_t version = 0;
  };

 public:
  /// A reader's lease on one version. Holding it pins the value: publish()
  /// never invalidates an outstanding handle. Cheap to copy (refcount).
  class Handle {
   public:
    Handle() = default;

    [[nodiscard]] bool valid() const noexcept { return rec_ != nullptr; }
    explicit operator bool() const noexcept { return valid(); }

    /// The pinned value; only meaningful when valid().
    [[nodiscard]] const T& operator*() const noexcept { return *rec_->value; }
    [[nodiscard]] const T* operator->() const noexcept {
      return rec_->value.get();
    }
    [[nodiscard]] const std::shared_ptr<const T>& value() const noexcept {
      return rec_->value;
    }

    /// Generation number assigned at publish (0 when invalid).
    [[nodiscard]] std::uint64_t version() const noexcept {
      return rec_ != nullptr ? rec_->version : 0;
    }

   private:
    friend class SnapshotSlot;
    explicit Handle(std::shared_ptr<const Versioned> rec)
        : rec_(std::move(rec)) {}
    std::shared_ptr<const Versioned> rec_;
  };

  SnapshotSlot() = default;
  SnapshotSlot(const SnapshotSlot&) = delete;
  SnapshotSlot& operator=(const SnapshotSlot&) = delete;

  /// Swap in `next` as the current version; returns its version number.
  /// Readers already inside acquire()d handles keep the previous version
  /// alive until they drop it. Publishing nullptr is allowed (takes the
  /// slot back to "nothing published"; version still advances).
  std::uint64_t publish(std::shared_ptr<const T> next) {
    const std::uint64_t v = next_version_.fetch_add(1) + 1;
    auto rec = std::make_shared<const Versioned>(
        Versioned{std::move(next), v});
    slot_.store(std::move(rec), std::memory_order_release);
    const detail::SnapshotMetrics& m = detail::snapshot_metrics();
    m.publishes.inc();
    m.version.set(static_cast<double>(v));
    return v;
  }

  /// Lease the current version (invalid handle if nothing published yet or
  /// the last publish was nullptr). Wait-free with respect to publishers.
  [[nodiscard]] Handle acquire() const {
    std::shared_ptr<const Versioned> rec =
        slot_.load(std::memory_order_acquire);
    if (rec == nullptr || rec->value == nullptr) {
      return Handle{};
    }
    return Handle{std::move(rec)};
  }

  /// Version of the most recent publish (0 = nothing ever published).
  [[nodiscard]] std::uint64_t version() const noexcept {
    return next_version_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::shared_ptr<const Versioned>> slot_;
  std::atomic<std::uint64_t> next_version_{0};
};

}  // namespace bfhrf::parallel
