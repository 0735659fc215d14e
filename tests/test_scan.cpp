#include "util/scan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "core/cc_theorem1.hpp"
#include "core/vanilla.hpp"
#include "graph/generators.hpp"
#include "test_support.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

namespace logcc::util {
namespace {

// Sizes straddling every interesting regime: empty, single, just below /
// at / just above the serial grain, and big enough for many blocks.
std::vector<std::size_t> probe_sizes() {
  return {0,
          1,
          2,
          kSerialGrain - 1,
          kSerialGrain,
          kSerialGrain + 1,
          4 * kSerialGrain + 3,
          64 * kSerialGrain + 17};
}

std::vector<std::uint64_t> ramp(std::size_t n) {
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = mix64(7, i) % 1000;
  return v;
}

TEST(PrefixSum, MatchesSerialReferenceAcrossGrainBoundaries) {
  for (std::size_t n : probe_sizes()) {
    auto v = ramp(n);
    std::vector<std::uint64_t> expect(n);
    std::uint64_t run = 0;
    for (std::size_t i = 0; i < n; ++i) {
      expect[i] = run;
      run += v[i];
    }
    auto got = v;
    std::uint64_t total = parallel_prefix_sum(got);
    EXPECT_EQ(total, run) << "n=" << n;
    EXPECT_EQ(got, expect) << "n=" << n;
  }
}

TEST(PrefixSum, EmptyAndSingle) {
  std::vector<std::uint32_t> empty;
  EXPECT_EQ(parallel_prefix_sum(empty), 0u);
  std::vector<std::uint32_t> one{41};
  EXPECT_EQ(parallel_prefix_sum(one), 41u);
  EXPECT_EQ(one[0], 0u);
}

TEST(Pack, StableAndCountsRemoved) {
  for (std::size_t n : probe_sizes()) {
    auto v = ramp(n);
    auto keep = [](std::uint64_t x) { return x % 3 != 0; };
    std::vector<std::uint64_t> expect;
    for (auto x : v)
      if (keep(x)) expect.push_back(x);
    auto got = v;
    std::size_t removed = parallel_pack(got, keep);
    EXPECT_EQ(removed, n - expect.size()) << "n=" << n;
    EXPECT_EQ(got, expect) << "n=" << n;
  }
}

TEST(Pack, AllKeptAndNoneKept) {
  auto v = ramp(8 * kSerialGrain);
  auto all = v;
  EXPECT_EQ(parallel_pack(all, [](std::uint64_t) { return true; }), 0u);
  EXPECT_EQ(all, v);
  auto none = v;
  EXPECT_EQ(parallel_pack(none, [](std::uint64_t) { return false; }),
            v.size());
  EXPECT_TRUE(none.empty());
}

TEST(Reduce, SumAndMaxAcrossGrainBoundaries) {
  for (std::size_t n : probe_sizes()) {
    auto v = ramp(n);
    std::uint64_t expect_sum = std::accumulate(v.begin(), v.end(), 0ull);
    std::uint64_t got_sum = parallel_reduce(
        std::size_t{0}, n, std::uint64_t{0},
        [&](std::size_t i) { return v[i]; },
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
    EXPECT_EQ(got_sum, expect_sum) << "n=" << n;
    std::uint64_t expect_max = 0;
    for (auto x : v) expect_max = std::max(expect_max, x);
    std::uint64_t got_max = parallel_reduce(
        std::size_t{0}, n, std::uint64_t{0},
        [&](std::size_t i) { return v[i]; },
        [](std::uint64_t a, std::uint64_t b) { return std::max(a, b); });
    EXPECT_EQ(got_max, expect_max) << "n=" << n;
  }
}

TEST(Reduce, SubrangeOffsets) {
  auto v = ramp(10 * kSerialGrain);
  const std::size_t lo = kSerialGrain / 2, hi = 9 * kSerialGrain + 5;
  std::uint64_t expect = std::accumulate(v.begin() + lo, v.begin() + hi, 0ull);
  std::uint64_t got = parallel_reduce(
      lo, hi, std::uint64_t{0}, [&](std::size_t i) { return v[i]; },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  EXPECT_EQ(got, expect);
}

TEST(AtomicMin, KeepsMinimum) {
  std::uint64_t slot = 100;
  atomic_min(slot, std::uint64_t{200});
  EXPECT_EQ(slot, 100u);
  atomic_min(slot, std::uint64_t{42});
  EXPECT_EQ(slot, 42u);
}

TEST(AtomicMax, KeepsMaximum) {
  std::uint64_t slot = 100;
  atomic_max(slot, std::uint64_t{42});
  EXPECT_EQ(slot, 100u);
  atomic_max(slot, std::uint64_t{200});
  EXPECT_EQ(slot, 200u);
}

TEST(Emit, MatchesSerialMultiEmitAcrossGrainBoundaries) {
  for (std::size_t n : probe_sizes()) {
    auto v = ramp(n);
    // Index i contributes i % 3 copies of v[i] + its index.
    auto count = [&](std::size_t i) -> std::size_t { return i % 3; };
    std::vector<std::uint64_t> expect;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t c = 0; c < count(i); ++c) expect.push_back(v[i] + c);
    std::vector<std::uint64_t> got;
    parallel_emit(n, got, count, [&](std::size_t i, std::uint64_t* dst) {
      for (std::size_t c = 0; c < count(i); ++c) dst[c] = v[i] + c;
    });
    EXPECT_EQ(got, expect) << "n=" << n;
  }
}

TEST(Histogram, MatchesSerialCounts) {
  for (std::size_t n : probe_sizes()) {
    auto v = ramp(n);
    const std::size_t bins = 17;
    std::vector<std::uint64_t> expect(bins, 0);
    for (auto x : v) ++expect[x % bins];
    auto got = parallel_histogram(n, bins,
                                  [&](std::size_t i) { return v[i] % bins; });
    EXPECT_EQ(got, expect) << "n=" << n;
  }
}

TEST(BucketPartition, StableWithinBucketsAndTightOffsets) {
  for (std::size_t n : probe_sizes()) {
    auto v = ramp(n);
    const std::size_t buckets = 8;
    auto bucket = [](std::uint64_t x) { return x % 8; };
    std::vector<std::uint64_t> out(n);
    std::vector<std::size_t> off(buckets + 1);
    parallel_bucket_partition_into(v.data(), n, out.data(),
                                   std::span<std::size_t>(off), buckets,
                                   bucket);
    EXPECT_EQ(off.front(), 0u);
    EXPECT_EQ(off.back(), n);
    // Concatenating the per-bucket serial filters reproduces the output.
    std::vector<std::uint64_t> expect;
    for (std::size_t k = 0; k < buckets; ++k)
      for (auto x : v)
        if (bucket(x) == k) expect.push_back(x);
    EXPECT_EQ(out, expect) << "n=" << n;
  }
}

TEST(GroupBy, SortedStableSegments) {
  for (std::size_t n : probe_sizes()) {
    // (key, payload) pairs; payload is the input index, so stability is
    // directly visible.
    const std::size_t num_keys = 1000;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = {mix64(3, i) % num_keys, i};
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    std::vector<std::size_t> off(num_keys + 1);
    parallel_group_by_into(v, out, num_keys,
                           [](const auto& p) { return p.first; },
                           std::span<std::size_t>(off));
    auto expect = v;
    std::stable_sort(expect.begin(), expect.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    EXPECT_EQ(out, expect) << "n=" << n;
    EXPECT_EQ(off.back(), n);
    for (std::size_t k = 0; k < num_keys; ++k) {
      EXPECT_LE(off[k], off[k + 1]);
      for (std::size_t i = off[k]; i < off[k + 1]; ++i)
        EXPECT_EQ(out[i].first, k);
    }
  }
}

TEST(GroupBy, LargeKeySpaceTwoLevelPath) {
  // num_keys far above the coarse bucket count exercises the two-level
  // partition + in-bucket counting sort.
  const std::size_t n = 16 * kSerialGrain;
  const std::size_t num_keys = 1 << 20;
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = mix64(11, i) % num_keys;
  std::vector<std::uint64_t> out;
  std::vector<std::size_t> off(num_keys + 1);
  parallel_group_by_into(v, out, num_keys, [](std::uint64_t x) { return x; },
                         std::span<std::size_t>(off));
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(out, sorted);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LE(off[out[i]], i);
    EXPECT_GT(off[out[i] + 1], i);
  }
}

TEST(BlockCount, PureFunctionOfSize) {
  EXPECT_EQ(scan_block_count(0), 1u);
  EXPECT_EQ(scan_block_count(kSerialGrain - 1), 1u);
  EXPECT_GE(scan_block_count(16 * kSerialGrain), 2u);
  // Monotone-ish sanity and the cap.
  EXPECT_LE(scan_block_count(std::size_t{1} << 40), 256u);
}

// ---- The determinism contract the algorithm layer is built on: component
// labels must be bit-identical for every thread count. (The EXPAND/MAXLINK/
// vote kernels have their own invariance suites next to their unit tests.)

using logcc::testing::ThreadInvariance;

TEST_F(ThreadInvariance, VanillaLabelsIdentical) {
  // Large enough that every parallel path (vote, mark, pack, bucketed
  // dedup, shortcut) actually engages.
  auto el = graph::make_gnm(30000, 90000, 11);
  set_parallelism(1);
  auto one = core::vanilla_cc(el, 5);
  for (int threads : {2, 8}) {
    set_parallelism(threads);
    auto many = core::vanilla_cc(el, 5);
    EXPECT_EQ(one.labels, many.labels) << "threads=" << threads;
    EXPECT_EQ(one.stats.phases, many.stats.phases) << "threads=" << threads;
  }
}

TEST_F(ThreadInvariance, Theorem1LabelsIdentical) {
  auto el = graph::make_gnm(20000, 60000, 23);
  const core::Theorem1Params params;  // PREPARE, then EXPAND phases
  set_parallelism(1);
  auto one = core::theorem1_cc(el, params);
  for (int threads : {2, 8}) {
    set_parallelism(threads);
    auto many = core::theorem1_cc(el, params);
    EXPECT_EQ(one.labels, many.labels) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace logcc::util
