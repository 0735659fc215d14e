// Epoch-swapped snapshot publication: one writer produces immutable
// snapshots, any number of readers read the current one without ever
// blocking on the producer.
//
// The pattern (the serve layer's ownership rule, see docs/ARCHITECTURE.md
// "Serving layer"): the writer builds a fresh snapshot off to the side,
// wraps it in a shared_ptr<const T>, and store()s it; readers take a
// shared_ptr copy and keep a consistent view for as long as they hold it —
// the old epoch's snapshot is freed when its last reader drops the
// reference. Snapshots must be immutable after publication; EpochPtr
// deliberately only traffics in pointers-to-const.
//
// Implementation: a mutex guards the pointer, and store() bumps the epoch
// word under the same mutex, so {epoch, pointer} change together. load()
// copies the pointer under the mutex. read() is the query path: each
// thread caches one {owner id, epoch, shared_ptr} slot per T, and a read
// is one acquire load of the epoch word plus a compare. The pointer is
// copied again, under the mutex, only when the epoch moved or the slot
// holds another EpochPtr<T>'s snapshot. Between publishes readers write
// no shared memory at all, so they scale with cores, and a thread's reads
// of one EpochPtr never go back to an older epoch.
//
// The cost: each thread pins at most one snapshot per T, the last one it
// read, until it reads again or exits — possibly after the EpochPtr that
// published it is gone. The slot is keyed by an id that is unique for the
// life of the process, never by address: a new EpochPtr can reuse a
// destroyed one's address, and its epochs restart at 1.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

namespace logcc::util {

namespace detail {
/// EpochPtr ids, handed out once each (0 marks an empty cache slot).
inline std::atomic<std::uint64_t> next_epoch_ptr_id{1};
}  // namespace detail

template <typename T>
class EpochPtr {
 public:
  EpochPtr() = default;
  explicit EpochPtr(std::shared_ptr<const T> initial) {
    store(std::move(initial));
  }

  EpochPtr(const EpochPtr&) = delete;
  EpochPtr& operator=(const EpochPtr&) = delete;

  /// A copy of the current snapshot (null before the first store). Takes
  /// the mutex; safe from any thread.
  std::shared_ptr<const T> load() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ptr_;
  }

  /// The current snapshot through the calling thread's cached slot (null
  /// before the first store). The reference is valid until this thread's
  /// next read() of any EpochPtr<T>; copy it to hold the snapshot longer.
  const std::shared_ptr<const T>& read() const {
    const Slot& slot = slot_;
    if (slot.owner != id_ ||
        slot.epoch != epoch_.load(std::memory_order_acquire))
      return reload();
    return *slot.pin;
  }

  /// Publishes `next` as the new epoch's snapshot and bumps the epoch
  /// counter. Single writer at a time; concurrent reads are fine.
  void store(std::shared_ptr<const T> next) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ptr_.swap(next);
      epoch_.fetch_add(1, std::memory_order_release);
    }
    // `next` now holds the previous snapshot: drop it outside the lock.
  }

  /// Number of store()s so far — the published generation.
  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

 private:
  // The slot is trivially destructible, so the read path reaches it with
  // no thread-local guard check; the owning pointer it points to lives in
  // pin_, which only reload() touches.
  struct Slot {
    std::uint64_t owner = 0;  // id_ of the EpochPtr whose snapshot is held
    std::uint64_t epoch = 0;  // that snapshot's epoch
    const std::shared_ptr<const T>* pin = nullptr;  // &pin_ once owned
  };

  [[gnu::noinline]] const std::shared_ptr<const T>& reload() const {
    std::shared_ptr<const T>& pin = pin_;
    std::shared_ptr<const T> previous = std::move(pin);
    Slot& slot = slot_;
    {
      std::lock_guard<std::mutex> lock(mu_);
      pin = ptr_;
      slot.epoch = epoch_.load(std::memory_order_relaxed);
    }
    slot.owner = id_;
    slot.pin = &pin;
    return pin;  // `previous` is dropped outside the lock
  }

  static inline thread_local Slot slot_;
  static inline thread_local std::shared_ptr<const T> pin_;

  // What readers touch on every read sits on its own cache line, apart
  // from the mutex that reloads and stores write.
  alignas(64) const std::uint64_t id_ =
      detail::next_epoch_ptr_id.fetch_add(1, std::memory_order_relaxed);
  std::atomic<std::uint64_t> epoch_{0};
  alignas(64) mutable std::mutex mu_;
  std::shared_ptr<const T> ptr_;
};

}  // namespace logcc::util
