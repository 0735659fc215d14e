// The persistent pool runtime: lifecycle (lazy start, shutdown/restart,
// resize), dispatch correctness, reentrancy, exception propagation, and the
// scan-primitive thread-invariance sweep under the pool backend at
// 1/2/4/8 lanes.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/building_blocks.hpp"
#include "test_support.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"
#include "util/scan.hpp"

namespace logcc::util {
namespace {

using logcc::testing::BackendInvariance;

TEST_F(BackendInvariance, PoolCoversRangeExactlyOnce) {
  set_parallel_backend(ParallelBackend::kPool);
  set_parallelism(4);
  constexpr std::size_t n = 200000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(0, n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST_F(BackendInvariance, PoolHonoursOffsetRangesAndBlocks) {
  set_parallel_backend(ParallelBackend::kPool);
  set_parallelism(4);
  std::vector<std::atomic<int>> hits(3 * kSerialGrain);
  parallel_for(kSerialGrain, 3 * kSerialGrain,
               [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i].load(), i >= kSerialGrain ? 1 : 0) << i;

  std::vector<std::atomic<int>> blocks(64);
  parallel_for_blocks(64, [&](std::size_t b) { blocks[b].fetch_add(1); });
  for (std::size_t b = 0; b < 64; ++b) ASSERT_EQ(blocks[b].load(), 1) << b;
}

TEST_F(BackendInvariance, ShutdownRestartsLazily) {
  set_parallel_backend(ParallelBackend::kPool);
  set_parallelism(4);
  ThreadPool& pool = ThreadPool::instance();
  std::atomic<std::uint64_t> sum{0};
  parallel_for(0, kSerialGrain * 4, [&](std::size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  const std::uint64_t starts_before = pool.starts();
  EXPECT_GE(starts_before, 1u);
  pool.shutdown();
  // Next dispatch restarts the workers transparently.
  std::atomic<std::uint64_t> sum2{0};
  parallel_for(0, kSerialGrain * 4, [&](std::size_t i) {
    sum2.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), sum2.load());
  EXPECT_GT(pool.starts(), starts_before);
}

TEST_F(BackendInvariance, ResizeTakesEffect) {
  set_parallel_backend(ParallelBackend::kPool);
  set_parallelism(2);
  EXPECT_EQ(hardware_parallelism(), 2);
  EXPECT_EQ(ThreadPool::instance().lanes(), 2);
  set_parallelism(8);
  EXPECT_EQ(hardware_parallelism(), 8);
  std::atomic<int> count{0};
  parallel_for(0, kSerialGrain * 2, [&](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), static_cast<int>(kSerialGrain * 2));
}

TEST_F(BackendInvariance, ReentrantDispatchRunsInlineWithoutDeadlock) {
  set_parallel_backend(ParallelBackend::kPool);
  set_parallelism(4);
  // Pin a small grain so the outer loop really fans out over multiple
  // chunks (the calibrated default may exceed the loop size).
  const std::size_t old_grain = parallel_grain();
  set_parallel_grain(64);
  const std::size_t outer = kSerialGrain + 16;
  const std::size_t inner = kSerialGrain + 16;
  std::atomic<std::uint64_t> count{0};
  parallel_for(0, outer, [&](std::size_t) {
    EXPECT_TRUE(ThreadPool::in_parallel_region());
    parallel_for(0, inner, [&](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(count.load(), static_cast<std::uint64_t>(outer) * inner);
  EXPECT_FALSE(ThreadPool::in_parallel_region());
  set_parallel_grain(old_grain);
}

TEST_F(BackendInvariance, ExceptionPropagatesAndPoolStaysUsable) {
  set_parallel_backend(ParallelBackend::kPool);
  set_parallelism(4);
  const std::size_t n = kSerialGrain * 4;
  EXPECT_THROW(
      parallel_for(0, n,
                   [&](std::size_t i) {
                     if (i == n / 2) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The pool must be fully drained and reusable after the rethrow.
  std::atomic<std::uint64_t> sum{0};
  parallel_for(0, n, [&](std::size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), static_cast<std::uint64_t>(n) * (n - 1) / 2);
}

TEST_F(BackendInvariance, SerialBackendReportsOneThread) {
  set_parallel_backend(ParallelBackend::kSerial);
  EXPECT_EQ(hardware_parallelism(), 1);
  EXPECT_STREQ(parallel_backend_name(), "serial");
  // Serial dispatch preserves order (observable: no interleaving).
  std::vector<std::size_t> order;
  parallel_for(0, 2 * kSerialGrain,
               [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 2 * kSerialGrain);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

// ---- Thread-invariance sweep of the scan primitives under the pool
// backend: 1/2/4/8 lanes must produce bit-identical results (the
// determinism contract, re-pinned on the new runtime).

struct ScanResults {
  std::uint64_t reduce = 0;
  std::vector<std::uint64_t> prefix;
  std::vector<std::uint64_t> packed;
  std::vector<std::uint64_t> histogram;
  std::vector<std::uint64_t> partitioned;
  std::vector<std::size_t> partition_offsets;
  std::vector<std::uint64_t> grouped;
  std::vector<std::size_t> group_offsets;
  std::vector<core::Arc> deduped;

  bool operator==(const ScanResults&) const = default;
};

ScanResults run_all_primitives() {
  const std::size_t n = 16 * kSerialGrain;
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = mix64(3, i) & 0xffff;

  ScanResults r;
  r.reduce = parallel_reduce(
      std::size_t{0}, n, std::uint64_t{0}, [&](std::size_t i) { return v[i]; },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  r.prefix = v;
  parallel_prefix_sum(r.prefix);
  r.packed = v;
  parallel_pack(r.packed, [](std::uint64_t x) { return x % 5 != 0; });
  r.histogram = parallel_histogram(n, 64, [&](std::size_t i) {
    return static_cast<std::size_t>(v[i] % 64);
  });
  r.partitioned.resize(n);
  r.partition_offsets.resize(32 + 1);
  parallel_bucket_partition_into(
      v.data(), n, r.partitioned.data(),
      std::span<std::size_t>(r.partition_offsets), 32,
      [](std::uint64_t x) { return static_cast<std::size_t>(x % 32); });
  r.group_offsets.resize((1 << 16) + 1);
  parallel_group_by_into(
      v, r.grouped, 1 << 16,
      [](std::uint64_t x) { return static_cast<std::size_t>(x); },
      std::span<std::size_t>(r.group_offsets));
  // dedup_arcs composes partition + emit + pack over the Arc type.
  std::vector<core::Arc> arcs(n);
  for (std::size_t i = 0; i < n; ++i) {
    arcs[i] = {static_cast<graph::VertexId>(mix64(5, i) % 997),
               static_cast<graph::VertexId>(mix64(6, i) % 997),
               static_cast<std::uint32_t>(i)};
  }
  r.deduped = arcs;
  core::dedup_arcs(r.deduped);
  return r;
}

TEST_F(BackendInvariance, ScanPrimitivesBitIdenticalAcrossPoolLanes) {
  set_parallel_backend(ParallelBackend::kPool);
  set_parallelism(1);
  const ScanResults one = run_all_primitives();
  for (int lanes : {2, 4, 8}) {
    set_parallelism(lanes);
    EXPECT_EQ(run_all_primitives(), one) << "lanes=" << lanes;
  }
}

TEST_F(BackendInvariance, ScanPrimitivesAgreeAcrossBackends) {
  set_parallelism(4);
  set_parallel_backend(ParallelBackend::kSerial);
  const ScanResults serial = run_all_primitives();
  set_parallel_backend(ParallelBackend::kPool);
  EXPECT_EQ(run_all_primitives(), serial) << "pool";
}

}  // namespace
}  // namespace logcc::util
