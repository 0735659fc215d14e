// Monotonic round-scratch arena — the allocation backend for the blocked
// scan primitives' temporaries.
//
// The paper's algorithms are round loops: every round re-enters the same
// kernels, and every kernel needs a few short-lived buffers (per-block
// partials, counting grids, pack staging). Heap-allocating those per round
// caps scaling exactly where the rounds are small. A MonotonicArena hands
// the same retained memory back round after round:
//
//   - alloc<T>(n) bump-allocates an uninitialized span (alloc_zero<T>
//     memsets it); allocation is O(1) and, once the arena reached its
//     high-water size, touches the heap never again;
//   - ScratchBuffer<T> is the RAII shape kernels use: it draws from the
//     *active* arena when one is installed (heap otherwise) and rewinds the
//     arena on destruction (strict LIFO — guaranteed by C++ scoping as long
//     as buffers are function-local, which scratch by definition is);
//   - reset() rewinds everything and consolidates multi-block growth into
//     one block, so the steady state is a single allocation-free buffer.
//
// The active arena is a thread_local pointer installed by ScratchArenaScope
// (drivers install a core::RoundArena for the whole run; see
// core/round_arena.hpp for the ownership rule). Every arena is single-owner
// by design: only one thread ever allocates from a given arena, so it needs
// no synchronization. Worker threads get their own: the pool's worker_main
// wraps each lane's work in a WorkerArenaScope, which installs a
// thread_local per-lane arena when no arena is active. The lane arena is
// first-touched, grown, and reused entirely by its own worker — in-bucket
// sort staging and group-by counting grids stay in lane-local (first-touch
// NUMA-local) memory and stop heap-allocating once every lane reached its
// high-water size.
//
// Arena memory is raw storage: ScratchBuffer places only trivially
// destructible types there (anything else silently uses the heap path), and
// nothing that escapes a kernel call may live in the arena.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace logcc::util {

class MonotonicArena {
 public:
  /// Rewind token: the (block, offset) position at mark() time.
  struct Marker {
    std::size_t block = 0;
    std::size_t used = 0;
  };

  explicit MonotonicArena(std::size_t first_block_bytes = 1 << 16)
      : first_block_bytes_(first_block_bytes) {}

  MonotonicArena(const MonotonicArena&) = delete;
  MonotonicArena& operator=(const MonotonicArena&) = delete;

  template <typename T>
  std::span<T> alloc(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is never destructed");
    if (count == 0) return {};
    void* p = raw_alloc(count * sizeof(T), alignof(T));
    return {static_cast<T*>(p), count};
  }

  template <typename T>
  std::span<T> alloc_zero(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "alloc_zero memsets raw storage");
    std::span<T> s = alloc<T>(count);
    // void* cast: T may have a non-trivial default constructor (NSDMIs);
    // zero-filling trivially copyable storage is still well-defined.
    if (!s.empty())
      std::memset(static_cast<void*>(s.data()), 0, s.size_bytes());
    return s;
  }

  Marker mark() const {
    return {cur_, cur_ < blocks_.size() ? blocks_[cur_].used : 0};
  }

  /// Returns to a previous mark(). Only valid in LIFO order: everything
  /// allocated after the mark must already be dead.
  void rewind(Marker m) {
    for (std::size_t b = m.block + 1; b < blocks_.size(); ++b)
      blocks_[b].used = 0;
    if (m.block < blocks_.size()) blocks_[m.block].used = m.used;
    cur_ = m.block;
  }

  /// Rewinds everything and, after multi-block growth, consolidates into a
  /// single block sized to the high-water mark — from then on the arena is
  /// one allocation-free buffer. Round loops call this between rounds.
  void reset() {
    ++resets_;
    if (blocks_.size() > 1) {
      std::size_t total = 0;
      for (const Block& b : blocks_) total += b.capacity;
      blocks_.clear();
      add_block(total);
    }
    for (Block& b : blocks_) b.used = 0;
    cur_ = 0;
  }

  /// Total bytes of retained blocks.
  std::size_t bytes_reserved() const {
    std::size_t total = 0;
    for (const Block& b : blocks_) total += b.capacity;
    return total;
  }
  /// Largest concurrently-live byte count ever observed.
  std::size_t high_water() const { return high_water_; }
  /// Heap allocations the arena itself ever made (stable in steady state).
  std::uint64_t block_allocations() const { return block_allocations_; }
  std::uint64_t resets() const { return resets_; }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> bytes;
    std::size_t capacity = 0;
    std::size_t used = 0;
  };

  void add_block(std::size_t at_least) {
    std::size_t cap = std::max(first_block_bytes_, at_least);
    // Geometric growth keeps block count (and consolidation churn) O(log).
    if (!blocks_.empty()) cap = std::max(cap, 2 * blocks_.back().capacity);
    blocks_.push_back({std::make_unique<std::byte[]>(cap), cap, 0});
    ++block_allocations_;
  }

  void* raw_alloc(std::size_t bytes, std::size_t align) {
    for (;;) {
      if (cur_ < blocks_.size()) {
        Block& b = blocks_[cur_];
        const std::size_t aligned = (b.used + align - 1) & ~(align - 1);
        if (aligned + bytes <= b.capacity) {
          b.used = aligned + bytes;
          track_high_water();
          return b.bytes.get() + aligned;
        }
        if (cur_ + 1 < blocks_.size()) {
          ++cur_;
          blocks_[cur_].used = 0;
          continue;
        }
      }
      add_block(bytes + align);
      cur_ = blocks_.size() - 1;
    }
  }

  void track_high_water() {
    std::size_t live = 0;
    for (std::size_t b = 0; b <= cur_ && b < blocks_.size(); ++b)
      live += blocks_[b].used;
    high_water_ = std::max(high_water_, live);
  }

  std::size_t first_block_bytes_;
  std::vector<Block> blocks_;
  std::size_t cur_ = 0;
  std::size_t high_water_ = 0;
  std::uint64_t block_allocations_ = 0;
  std::uint64_t resets_ = 0;
};

/// The arena scratch allocations on this thread currently draw from
/// (nullptr: plain heap). Installed by ScratchArenaScope.
MonotonicArena* active_scratch_arena();

/// Installs `arena` as this thread's active scratch arena for the scope's
/// lifetime, restoring the previous one on exit. Passing nullptr
/// temporarily disables arena scratch.
class ScratchArenaScope {
 public:
  explicit ScratchArenaScope(MonotonicArena* arena);
  ~ScratchArenaScope();
  ScratchArenaScope(const ScratchArenaScope&) = delete;
  ScratchArenaScope& operator=(const ScratchArenaScope&) = delete;

 private:
  MonotonicArena* previous_;
};

/// Resets the active scratch arena, if any. Round loops call this at the
/// top of every round; it requires that no ScratchBuffer is live on this
/// thread (true between kernel calls by construction).
void scratch_arena_round_reset();

/// Allocates this thread's per-lane arena's first block now. Worker threads
/// call it once at startup so lane-arena creation never lands inside a
/// steady-state round (whose zero-allocation property
/// tests/test_round_arena.cpp asserts with an operator-new counter).
void prewarm_worker_arena();

/// Installs this thread's per-lane arena as the active scratch arena — but
/// only when none is active (the dispatching thread keeps its RoundArena;
/// nested parallel regions keep the outer scope's arena). The parallel
/// runtimes wrap each lane's work in one of these: worker-side
/// ScratchBuffers then draw from memory the worker itself first-touched and
/// retains across dispatches. On exit the lane arena is reset (all scratch
/// is dead by LIFO) so the next dispatch starts from a rewound,
/// consolidated block.
class WorkerArenaScope {
 public:
  WorkerArenaScope();
  ~WorkerArenaScope();
  WorkerArenaScope(const WorkerArenaScope&) = delete;
  WorkerArenaScope& operator=(const WorkerArenaScope&) = delete;

 private:
  bool installed_;
};

/// RAII scratch span: arena-backed (with LIFO rewind on destruction) when
/// an arena is active and T is trivially destructible; heap-backed
/// otherwise. Contents are uninitialized unless `zeroed`.
template <typename T>
class ScratchBuffer {
 public:
  explicit ScratchBuffer(std::size_t count, bool zeroed = false) {
    if constexpr (std::is_trivially_destructible_v<T> &&
                  std::is_trivially_copyable_v<T>) {
      arena_ = active_scratch_arena();
      if (arena_) {
        mark_ = arena_->mark();
        span_ = zeroed ? arena_->alloc_zero<T>(count) : arena_->alloc<T>(count);
        return;
      }
    }
    owned_.reset(zeroed ? new T[count]() : new T[count]);
    span_ = {owned_.get(), count};
  }
  ~ScratchBuffer() {
    if (arena_) arena_->rewind(mark_);
  }
  ScratchBuffer(const ScratchBuffer&) = delete;
  ScratchBuffer& operator=(const ScratchBuffer&) = delete;

  T* data() { return span_.data(); }
  const T* data() const { return span_.data(); }
  std::size_t size() const { return span_.size(); }
  T& operator[](std::size_t i) { return span_[i]; }
  const T& operator[](std::size_t i) const { return span_[i]; }
  std::span<T> span() { return span_; }

 private:
  MonotonicArena* arena_ = nullptr;
  MonotonicArena::Marker mark_{};
  std::span<T> span_{};
  std::unique_ptr<T[]> owned_;
};

}  // namespace logcc::util
