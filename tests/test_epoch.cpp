// util::EpochPtr, the serve layer's snapshot-swap primitive. One writer
// publishes generations as fast as it can while 8 reader threads read
// continuously, half through load() (a copy under the mutex) and half
// through read() (the per-thread cached slot). Every snapshot a reader
// gets must be internally consistent (immutable once published) and at
// least as new as the epoch the reader saw before asking, a thread's
// epochs must never go back, and dropped snapshots must be freed exactly
// once (shared_ptr accounting). The cached slot must also tell a new
// EpochPtr from a destroyed one at the same address, and pin no more than
// the last snapshot it returned. The TSan CI job runs this suite with the
// pool backend to race-check store() against both read paths.
#include "util/epoch.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

namespace logcc {
namespace {

/// A snapshot whose fields must agree: value * 3 == triple, and the
/// guard must equal the value xored with the build-time constant. A torn
/// or mutated-after-publish snapshot breaks one of the equations.
struct Snapshot {
  std::uint64_t value;
  std::uint64_t triple;
  std::uint64_t guard;
  static constexpr std::uint64_t kGuardXor = 0x9E3779B97F4A7C15ull;
  explicit Snapshot(std::uint64_t v)
      : value(v), triple(3 * v), guard(v ^ kGuardXor) {}
  bool consistent() const {
    return triple == 3 * value && guard == (value ^ kGuardXor);
  }
};

TEST(EpochPtr, StartsNullAtEpochZero) {
  util::EpochPtr<Snapshot> p;
  EXPECT_EQ(p.load(), nullptr);
  EXPECT_EQ(p.read(), nullptr);
  EXPECT_EQ(p.epoch(), 0u);
}

TEST(EpochPtr, StoreBumpsEpochAndSwapsValue) {
  util::EpochPtr<Snapshot> p;
  p.store(std::make_shared<const Snapshot>(7));
  EXPECT_EQ(p.epoch(), 1u);
  EXPECT_EQ(p.load()->value, 7u);
  EXPECT_EQ(p.read()->value, 7u);
  p.store(std::make_shared<const Snapshot>(8));
  EXPECT_EQ(p.epoch(), 2u);
  EXPECT_EQ(p.load()->value, 8u);
  EXPECT_EQ(p.read()->value, 8u);
}

// The cached slot belongs to one EpochPtr. A new EpochPtr built in the
// destroyed one's storage has the same address and restarts at the same
// epoch, so a slot keyed by address (or by epoch alone) would keep
// answering with the destroyed EpochPtr's snapshot.
TEST(EpochPtr, CachedReadSeesANewPtrAtARecycledAddress) {
  std::optional<util::EpochPtr<Snapshot>> p;
  p.emplace(std::make_shared<const Snapshot>(1));
  const void* const address = &*p;
  EXPECT_EQ(p->read()->value, 1u);
  p.reset();
  p.emplace(std::make_shared<const Snapshot>(2));
  ASSERT_EQ(&*p, address);
  ASSERT_EQ(p->epoch(), 1u);
  EXPECT_EQ(p->read()->value, 2u)
      << "a cached read answered from a destroyed EpochPtr";
}

// The cache's memory cost is one snapshot per thread: the slot keeps the
// last snapshot it returned alive, and lets it go on the next read after
// a store.
TEST(EpochPtr, CachedReadPinsOnlyTheLastSnapshot) {
  util::EpochPtr<Snapshot> p;
  p.store(std::make_shared<const Snapshot>(1));
  const std::weak_ptr<const Snapshot> first = p.read();
  p.store(std::make_shared<const Snapshot>(2));
  EXPECT_FALSE(first.expired()) << "the slot still holds epoch 1";
  EXPECT_EQ(p.read()->value, 2u);
  EXPECT_TRUE(first.expired()) << "the slot pinned a superseded snapshot";
}

TEST(EpochPtr, OldSnapshotSurvivesWhileHeld) {
  util::EpochPtr<Snapshot> p;
  p.store(std::make_shared<const Snapshot>(1));
  const auto held = p.load();
  p.store(std::make_shared<const Snapshot>(2));
  EXPECT_EQ(held->value, 1u) << "a held epoch must keep its view";
  EXPECT_EQ(p.load()->value, 2u);
}

TEST(EpochPtr, ConcurrentPublishReadChurn) {
  constexpr int kReaders = 8;
  constexpr std::uint64_t kGenerations = 20000;

  util::EpochPtr<Snapshot> p;
  p.store(std::make_shared<const Snapshot>(0));
  std::atomic<bool> done{false};
  std::atomic<int> started{0};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> loads{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    const bool cached = t % 2 == 1;
    readers.emplace_back([&, cached] {
      std::uint64_t my_loads = 0;
      std::uint64_t last_epoch = 0;
      std::uint64_t last_value = 0;
      std::uint64_t my_torn = 0;
      started.fetch_add(1, std::memory_order_release);
      while (!done.load(std::memory_order_acquire)) {
        // Epoch-then-read: the snapshot must be at least as new as the
        // epoch observed before it (generation g is published as epoch
        // g + 1), and this thread's snapshots must never go back.
        const std::uint64_t e = p.epoch();
        std::shared_ptr<const Snapshot> copy;
        const Snapshot* snap =
            cached ? p.read().get() : (copy = p.load()).get();
        if (snap == nullptr || !snap->consistent()) {
          ++my_torn;
        } else {
          if (snap->value + 1 < e) ++my_torn;        // stale
          if (snap->value < last_value) ++my_torn;   // went back
          last_value = snap->value;
        }
        if (e < last_epoch) ++my_torn;  // monotonicity violation
        last_epoch = e;
        ++my_loads;
      }
      torn.fetch_add(my_torn, std::memory_order_relaxed);
      loads.fetch_add(my_loads, std::memory_order_relaxed);
    });
  }

  // Publish/read churn needs actual overlap: 20k stores outrun thread
  // startup, so wait for every reader's first iteration before racing.
  while (started.load(std::memory_order_acquire) < kReaders) {
  }
  for (std::uint64_t g = 1; g <= kGenerations; ++g)
    p.store(std::make_shared<const Snapshot>(g));
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_EQ(torn.load(), 0u)
      << "a reader observed a torn, mutated, or epoch-regressed snapshot";
  EXPECT_GT(loads.load(), 0u);
  EXPECT_EQ(p.epoch(), kGenerations + 1);
  EXPECT_EQ(p.load()->value, kGenerations);
  EXPECT_TRUE(p.load()->consistent());
}

TEST(EpochPtr, ChurnWithHeldReferences) {
  // Readers that HOLD snapshots across many generations: the writer keeps
  // publishing, held epochs must stay alive and unchanged until released.
  util::EpochPtr<Snapshot> p;
  p.store(std::make_shared<const Snapshot>(0));
  std::atomic<bool> done{false};
  std::atomic<int> started{0};
  std::atomic<std::uint64_t> violations{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&] {
      started.fetch_add(1, std::memory_order_release);
      while (!done.load(std::memory_order_acquire)) {
        const auto held = p.load();
        const std::uint64_t v = held->value;
        // Spin a little while the writer races ahead, then re-check the
        // held snapshot did not change underneath us.
        for (int spin = 0; spin < 64; ++spin) {
          if (!held->consistent() || held->value != v) {
            violations.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
      }
    });
  }
  while (started.load(std::memory_order_acquire) < 8) {
  }
  for (std::uint64_t g = 1; g <= 5000; ++g)
    p.store(std::make_shared<const Snapshot>(g));
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_EQ(violations.load(), 0u);
}

}  // namespace
}  // namespace logcc
