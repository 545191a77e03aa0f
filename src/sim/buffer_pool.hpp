// Recycled key-buffer storage for simulated message payloads.
//
// Every exchange of the SPMD sorts used to heap-allocate a fresh
// `std::vector<Key>` per message; at steady state the simulator's hot path
// was dominated by allocator traffic rather than by the work the paper's
// cost model charges. A `BufferPool` keeps returned payload storage on a
// per-node free list so that, after warm-up, sends and receives perform no
// heap allocation at all.
//
// Ownership protocol:
//  * `NodeCtx::send` checks a buffer out of the *sender's* pool (or adopts
//    the storage of a moved-in vector) and wraps it in a `PooledBuffer`.
//  * The `Message` carries the `PooledBuffer` to the receiver.
//  * When the receiver drops the handle — or swaps its storage out with
//    `release_into` — the storage travels back to the pool it came from.
//
// Receivers return storage from node code, outside any NodeCtx call and so
// outside the threaded executor's machine lock; the pool's own mutex makes
// those returns race-free. It is essentially uncontended (the owning node
// checks out, the receiving node returns). Statistics count every
// checkout, every checkout that had to touch the heap (`fresh` when the
// free list was empty, `grows` when a recycled buffer was too small), and
// every return, giving the benchmark harness an exact allocation ledger;
// a run reports its slice of it as RunReport::pool_delta.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

namespace ftsort::sim {

using Key = std::int64_t;

/// Allocation ledger of one pool (or the aggregate over all pools).
/// `checkouts` and `returns` follow from a run's sends and receives. On the
/// threaded executor `fresh` and `grows` also follow the host's timing:
/// whether a checkout finds a recycled buffer depends on when a receiver on
/// another worker gave it back. So `heap_allocations()` is reproducible on
/// the sequential executor only.
struct PoolStats {
  std::uint64_t checkouts = 0;  ///< buffers handed out
  std::uint64_t fresh = 0;      ///< checkouts served by a new heap vector
  std::uint64_t grows = 0;      ///< recycled buffers that had to reallocate
  std::uint64_t returns = 0;    ///< buffers returned to the free list

  /// Heap allocations attributable to payload traffic.
  std::uint64_t heap_allocations() const { return fresh + grows; }

  PoolStats& operator+=(const PoolStats& other) {
    checkouts += other.checkouts;
    fresh += other.fresh;
    grows += other.grows;
    returns += other.returns;
    return *this;
  }
};

class BufferPool {
 public:
  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Take a buffer with capacity for at least `size_hint` keys. The buffer
  /// is empty (size 0); its capacity is whatever the recycled storage
  /// carried, grown on demand.
  std::vector<Key> checkout(std::size_t size_hint) {
    std::vector<Key> storage;
    {
      const std::unique_lock<std::mutex> guard = lock();
      ++stats_.checkouts;
      if (free_.empty()) {
        ++stats_.fresh;
      } else {
        storage = std::move(free_.back());
        free_.pop_back();
        if (storage.capacity() < size_hint) ++stats_.grows;
      }
    }
    storage.reserve(size_hint);
    return storage;
  }

  /// Return storage to the free list. The contents are discarded; the
  /// capacity is kept for the next checkout.
  void give_back(std::vector<Key>&& storage) {
    storage.clear();
    const std::unique_lock<std::mutex> guard = lock();
    ++stats_.returns;
    free_.push_back(std::move(storage));
  }

  PoolStats stats() const {
    const std::unique_lock<std::mutex> guard = lock();
    return stats_;
  }

  std::size_t free_count() const {
    const std::unique_lock<std::mutex> guard = lock();
    return free_.size();
  }

  // Host-side contention ledger (Machine::profile_host): wall-clock data,
  // kept out of PoolStats, which the metrics export carries.
  void set_profiling(bool on) {
    profiling_.store(on, std::memory_order_relaxed);
  }
  void reset_contention() {
    contended_.store(0, std::memory_order_relaxed);
    contended_wait_ns_.store(0, std::memory_order_relaxed);
  }
  std::uint64_t contended() const {
    return contended_.load(std::memory_order_relaxed);
  }
  std::uint64_t contended_wait_ns() const {
    return contended_wait_ns_.load(std::memory_order_relaxed);
  }

 private:
  std::unique_lock<std::mutex> lock() const {
    if (!profiling_.load(std::memory_order_relaxed))
      return std::unique_lock<std::mutex>(mutex_);
    std::unique_lock<std::mutex> lk(mutex_, std::try_to_lock);
    if (lk.owns_lock()) return lk;
    const auto t0 = std::chrono::steady_clock::now();
    lk.lock();
    const auto waited = std::chrono::steady_clock::now() - t0;
    contended_.fetch_add(1, std::memory_order_relaxed);
    contended_wait_ns_.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(waited)
                .count()),
        std::memory_order_relaxed);
    return lk;
  }

  mutable std::mutex mutex_;
  std::vector<std::vector<Key>> free_;
  PoolStats stats_;
  std::atomic<bool> profiling_{false};
  mutable std::atomic<std::uint64_t> contended_{0};
  mutable std::atomic<std::uint64_t> contended_wait_ns_{0};
};

/// Move-only owning handle to pooled storage. Destruction (or `reset`)
/// returns the storage to its pool; a handle with no pool simply frees.
/// Exposes enough of the vector interface that receivers can read payloads
/// in place, and `release_into` for stealing the storage while recycling
/// the receiver's previous buffer.
class PooledBuffer {
 public:
  PooledBuffer() = default;
  PooledBuffer(BufferPool* pool, std::vector<Key> storage)
      : pool_(pool), storage_(std::move(storage)) {}
  PooledBuffer(PooledBuffer&& other) noexcept
      : pool_(std::exchange(other.pool_, nullptr)),
        storage_(std::move(other.storage_)) {}
  PooledBuffer& operator=(PooledBuffer&& other) noexcept {
    if (this != &other) {
      reset();
      pool_ = std::exchange(other.pool_, nullptr);
      storage_ = std::move(other.storage_);
    }
    return *this;
  }
  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;
  ~PooledBuffer() { reset(); }

  /// Return the storage to its pool and leave the handle empty.
  void reset() {
    if (pool_ != nullptr) {
      pool_->give_back(std::move(storage_));
      pool_ = nullptr;
    }
    storage_.clear();
  }

  /// Swap the payload into `dst`; `dst`'s previous storage goes back to the
  /// pool in its place. The receiver-side analogue of a zero-copy move.
  void release_into(std::vector<Key>& dst) {
    std::swap(dst, storage_);
    reset();
  }

  std::vector<Key>& vec() { return storage_; }
  const std::vector<Key>& vec() const { return storage_; }
  std::span<const Key> span() const { return storage_; }

  std::size_t size() const { return storage_.size(); }
  bool empty() const { return storage_.empty(); }
  const Key* data() const { return storage_.data(); }
  Key* data() { return storage_.data(); }
  const Key& operator[](std::size_t i) const { return storage_[i]; }
  auto begin() const { return storage_.begin(); }
  auto end() const { return storage_.end(); }
  auto begin() { return storage_.begin(); }
  auto end() { return storage_.end(); }

 private:
  BufferPool* pool_ = nullptr;
  std::vector<Key> storage_;
};

}  // namespace ftsort::sim
