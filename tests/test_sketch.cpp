// Property suite for the approximate tier (src/sketch/): the sketch
// algebra (merge commutativity/associativity/idempotence, insert-order
// invariance, serialization round trips) and the determinism contract
// (add_parallel bit-identical to the serial loop across backends and
// thread counts). The statistical guarantees — error bounds over seed
// sweeps — live in tests/test_sketch_accuracy.cpp; the corpus-wide
// sketch-vs-exact cross-checks in tests/test_differential_sketch.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <vector>

#include "core/connectivity.hpp"
#include "sketch/count_min.hpp"
#include "sketch/hyperloglog.hpp"
#include "sketch/stream_stats.hpp"
#include "test_support.hpp"
#include "util/random.hpp"

namespace {

using namespace logcc;
using logcc::testing::BackendInvariance;
using sketch::CmsUpdate;
using sketch::CountMinSketch;
using sketch::HyperLogLog;

/// Deterministic pseudo-random keys (counter-based, like everything else).
std::vector<std::uint64_t> make_keys(std::size_t count, std::uint64_t stream) {
  std::vector<std::uint64_t> keys(count);
  for (std::size_t i = 0; i < count; ++i)
    keys[i] = util::mix64(stream, i) % (count / 2 + 1);  // force duplicates
  return keys;
}

/// A deterministic permutation of `keys` (sort by mix64 of the index).
std::vector<std::uint64_t> shuffled(const std::vector<std::uint64_t>& keys,
                                    std::uint64_t salt) {
  std::vector<std::size_t> order(keys.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return util::mix64(salt, a) < util::mix64(salt, b);
  });
  std::vector<std::uint64_t> out(keys.size());
  for (std::size_t i = 0; i < order.size(); ++i) out[i] = keys[order[i]];
  return out;
}

HyperLogLog hll_of(const std::vector<std::uint64_t>& keys, int p = 10,
                   std::uint64_t seed = 42) {
  HyperLogLog h(p, seed);
  for (std::uint64_t k : keys) h.add(k);
  return h;
}

CountMinSketch cms_of(const std::vector<std::uint64_t>& keys,
                      CmsUpdate mode = CmsUpdate::kStandard,
                      std::uint64_t seed = 42) {
  CountMinSketch c(4, 256, seed, mode);
  for (std::uint64_t k : keys) c.add(k);
  return c;
}

// ------------------------------------------------------------------ HLL ---

TEST(HyperLogLog, EmptyAndSmallCardinalities) {
  HyperLogLog empty;
  EXPECT_EQ(empty.precision(), 0);
  EXPECT_EQ(empty.estimate(), 0.0);

  HyperLogLog h(12, 1);
  EXPECT_EQ(h.estimate(), 0.0);
  // Linear counting makes tiny cardinalities near-exact at p=12.
  for (std::uint64_t k = 0; k < 100; ++k) h.add(k);
  EXPECT_NEAR(h.estimate(), 100.0, 2.0);
  // Duplicates do not move the estimate at all (pure register max).
  HyperLogLog before = h;
  for (std::uint64_t k = 0; k < 100; ++k) h.add(k);
  EXPECT_EQ(h, before);
}

TEST(HyperLogLog, MergeAlgebra) {
  const auto a = hll_of(make_keys(2000, 1));
  const auto b = hll_of(make_keys(3000, 2));
  const auto c = hll_of(make_keys(1000, 3));

  auto ab = a;
  ab.merge(b);
  auto ba = b;
  ba.merge(a);
  EXPECT_EQ(ab, ba);  // commutes, bit-identical registers

  auto ab_c = ab;
  ab_c.merge(c);
  auto bc = b;
  bc.merge(c);
  auto a_bc = a;
  a_bc.merge(bc);
  EXPECT_EQ(ab_c, a_bc);  // associates

  auto aa = a;
  aa.merge(a);
  EXPECT_EQ(aa, a);  // idempotent
}

TEST(HyperLogLog, MergeEqualsUnionStream) {
  const auto keys_a = make_keys(2500, 7);
  const auto keys_b = make_keys(1500, 8);
  auto merged = hll_of(keys_a);
  merged.merge(hll_of(keys_b));
  auto both = keys_a;
  both.insert(both.end(), keys_b.begin(), keys_b.end());
  EXPECT_EQ(merged, hll_of(both));
}

TEST(HyperLogLog, InsertOrderInvariance) {
  const auto keys = make_keys(4000, 11);
  EXPECT_EQ(hll_of(keys), hll_of(shuffled(keys, 1)));
  EXPECT_EQ(hll_of(keys), hll_of(shuffled(keys, 2)));
}

TEST(HyperLogLog, SerializeRoundTripIsBitIdentical) {
  const auto h = hll_of(make_keys(5000, 13), 8, 99);
  const auto bytes = h.serialize();
  HyperLogLog back;
  ASSERT_TRUE(HyperLogLog::deserialize(bytes, &back));
  EXPECT_EQ(back, h);
  EXPECT_EQ(back.serialize(), bytes);

  // Truncated and corrupted inputs are rejected, never aborted on.
  HyperLogLog sink;
  for (std::size_t cut : {std::size_t{0}, std::size_t{15}, bytes.size() - 1})
    EXPECT_FALSE(HyperLogLog::deserialize(
        std::span<const std::uint8_t>(bytes.data(), cut), &sink));
  auto bad = bytes;
  bad[0] = 200;  // precision far out of range
  EXPECT_FALSE(HyperLogLog::deserialize(bad, &sink));
  auto bad_rank = bytes;
  bad_rank[16] = 255;  // register above the max possible rank
  EXPECT_FALSE(HyperLogLog::deserialize(bad_rank, &sink));
  EXPECT_EQ(sink, HyperLogLog());  // failures leave the output untouched
}

// ------------------------------------------------------------ count-min ---

TEST(CountMin, StandardMergeAlgebra) {
  const auto a = cms_of(make_keys(2000, 21));
  const auto b = cms_of(make_keys(3000, 22));
  const auto c = cms_of(make_keys(1000, 23));

  auto ab = a;
  ab.merge(b);
  auto ba = b;
  ba.merge(a);
  EXPECT_EQ(ab, ba);

  auto ab_c = ab;
  ab_c.merge(c);
  auto bc = b;
  bc.merge(c);
  auto a_bc = a;
  a_bc.merge(bc);
  EXPECT_EQ(ab_c, a_bc);
}

TEST(CountMin, StandardMergeEqualsUnionStream) {
  const auto keys_a = make_keys(2000, 31);
  const auto keys_b = make_keys(1000, 32);
  auto merged = cms_of(keys_a);
  merged.merge(cms_of(keys_b));
  auto both = keys_a;
  both.insert(both.end(), keys_b.begin(), keys_b.end());
  EXPECT_EQ(merged, cms_of(both));
  EXPECT_EQ(merged.total(), both.size());
}

TEST(CountMin, StandardOrderInvariance) {
  const auto keys = make_keys(3000, 41);
  EXPECT_EQ(cms_of(keys), cms_of(shuffled(keys, 5)));
}

TEST(CountMin, OverestimateOnlyBothModes) {
  const auto keys = make_keys(4000, 51);
  std::map<std::uint64_t, std::uint64_t> truth;
  for (std::uint64_t k : keys) ++truth[k];
  const auto standard = cms_of(keys, CmsUpdate::kStandard);
  const auto conservative = cms_of(keys, CmsUpdate::kConservative);
  for (const auto& [k, count] : truth) {
    EXPECT_GE(standard.estimate(k), count);
    EXPECT_GE(conservative.estimate(k), count);
    // Conservative update is pointwise at least as tight as standard.
    EXPECT_LE(conservative.estimate(k), standard.estimate(k));
  }
}

TEST(CountMin, WeightedAddMatchesRepeatedAdd) {
  CountMinSketch once(4, 128, 3);
  once.add(77, 13);
  CountMinSketch many(4, 128, 3);
  for (int i = 0; i < 13; ++i) many.add(77);
  EXPECT_EQ(once, many);
}

TEST(CountMin, GuaranteeParameters) {
  CountMinSketch c(4, 1u << 14, 1);
  EXPECT_NEAR(c.epsilon(), 2.71828 / 16384.0, 1e-7);
  EXPECT_NEAR(c.delta(), std::exp(-4.0), 1e-9);
}

TEST(CountMin, SerializeRoundTripIsBitIdentical) {
  for (CmsUpdate mode : {CmsUpdate::kStandard, CmsUpdate::kConservative}) {
    const auto c = cms_of(make_keys(2000, 61), mode, 17);
    const auto bytes = c.serialize();
    CountMinSketch back;
    ASSERT_TRUE(CountMinSketch::deserialize(bytes, &back));
    EXPECT_EQ(back, c);
    EXPECT_EQ(back.serialize(), bytes);

    CountMinSketch sink;
    for (std::size_t cut : {std::size_t{0}, std::size_t{39}, bytes.size() - 8})
      EXPECT_FALSE(CountMinSketch::deserialize(
          std::span<const std::uint8_t>(bytes.data(), cut), &sink));
    auto bad = bytes;
    bad[24] = 2;  // invalid update mode
    EXPECT_FALSE(CountMinSketch::deserialize(bad, &sink));
    EXPECT_EQ(sink, CountMinSketch());
  }
}

// ------------------------------------------- parallel determinism sweep ---

class SketchBackendInvariance : public BackendInvariance {};

TEST_F(SketchBackendInvariance, HllAddParallelMatchesSerialEverywhere) {
  const auto keys = make_keys(20000, 71);
  const auto reference = hll_of(keys, 12, 5);
  for (auto backend :
       {util::ParallelBackend::kPool, util::ParallelBackend::kSerial}) {
    util::set_parallel_backend(backend);
    for (int threads : {1, 2, 4, 8}) {
      util::set_parallelism(threads);
      HyperLogLog h(12, 5);
      h.add_parallel(std::span<const std::uint64_t>(keys));
      EXPECT_EQ(h, reference)
          << "backend=" << util::parallel_backend_name()
          << " threads=" << threads;
    }
  }
}

TEST_F(SketchBackendInvariance, CmsAddParallelMatchesSerialEverywhere) {
  const auto keys = make_keys(20000, 81);
  const auto reference = cms_of(keys, CmsUpdate::kStandard, 5);
  for (auto backend :
       {util::ParallelBackend::kPool, util::ParallelBackend::kSerial}) {
    util::set_parallel_backend(backend);
    for (int threads : {1, 2, 4, 8}) {
      util::set_parallelism(threads);
      CountMinSketch c(4, 256, 5);
      c.add_parallel(std::span<const std::uint64_t>(keys));
      EXPECT_EQ(c, reference)
          << "backend=" << util::parallel_backend_name()
          << " threads=" << threads;
    }
  }
}

TEST_F(SketchBackendInvariance, StreamStatsFinishIsBitIdentical) {
  // The stream is consumed sequentially by contract; finish() is the
  // parallel part (flatten + bulk sketch fills) and must be bit-identical
  // for every backend and thread count.
  const auto el = graph::make_rmat(9, 2048, 13);
  auto run = [&] {
    sketch::StreamStats stats(el.n);
    for (const auto& e : el.edges) stats.add_edge(e.u, e.v);
    return stats;
  };
  auto ref_stats = run();
  const auto ref_summary = ref_stats.finish();
  for (auto backend :
       {util::ParallelBackend::kPool, util::ParallelBackend::kSerial}) {
    util::set_parallel_backend(backend);
    for (int threads : {1, 2, 4, 8}) {
      util::set_parallelism(threads);
      auto stats = run();
      const auto summary = stats.finish();
      EXPECT_EQ(stats.labels(), ref_stats.labels());
      EXPECT_EQ(stats.component_hll(), ref_stats.component_hll());
      EXPECT_EQ(stats.size_cms(), ref_stats.size_cms());
      EXPECT_EQ(summary.exact_components, ref_summary.exact_components);
      EXPECT_EQ(summary.approx_components, ref_summary.approx_components);
      ASSERT_EQ(summary.heavy.size(), ref_summary.heavy.size());
      for (std::size_t i = 0; i < summary.heavy.size(); ++i) {
        EXPECT_EQ(summary.heavy[i].root, ref_summary.heavy[i].root);
        EXPECT_EQ(summary.heavy[i].exact_size,
                  ref_summary.heavy[i].exact_size);
      }
    }
  }
}

// ---------------------------------------------------------- StreamStats ---

TEST(StreamStats, ExactConnectivityOnZoo) {
  for (const auto& [name, el] : logcc::testing::small_zoo()) {
    sketch::StreamStats stats(el.n);
    for (const auto& e : el.edges) stats.add_edge(e.u, e.v);
    const auto summary = stats.finish();
    EXPECT_TRUE(logcc::testing::matches_oracle(el, stats.labels())) << name;
    // Labels are canonical min-id, so they match the batch path bitwise.
    auto r = connected_components(graph::ArcsInput::from_edges(el),
                                  Algorithm::kFasterCC, {});
    EXPECT_EQ(stats.labels(), r.labels()) << name;
    EXPECT_EQ(summary.exact_components, r.num_components()) << name;
    EXPECT_EQ(summary.edges, el.edges.size()) << name;
  }
}

TEST(StreamStats, CountsLoopsAndDuplicates) {
  sketch::StreamStats stats(4);
  stats.add_edge(0, 1);
  stats.add_edge(1, 0);  // duplicate (reversed)
  stats.add_edge(2, 2);  // self-loop
  stats.add_edge(2, 3);
  const auto summary = stats.finish();
  EXPECT_EQ(summary.edges, 4u);
  EXPECT_EQ(summary.self_loops, 1u);
  EXPECT_EQ(summary.exact_components, 2u);
  // Tiny cardinalities sit in the linear-counting regime: near-exact.
  EXPECT_NEAR(summary.distinct_edges, 3.0, 0.1);     // {0-1, 2-2, 2-3}
  EXPECT_NEAR(summary.touched_vertices, 4.0, 0.1);   // all of them
  EXPECT_NEAR(summary.approx_components, 2.0, 0.1);
}

TEST(StreamStats, HeavyHittersFindTheHub) {
  // A star with mass on vertex 0 plus a far-away path: the hub's component
  // must top the heavy list with a sane mass estimate.
  const std::uint64_t n = 256;
  sketch::StreamStatsOptions opt;
  opt.heavy_hitters = 4;
  sketch::StreamStats stats(n, opt);
  for (graph::VertexId v = 1; v < 128; ++v) stats.add_edge(0, v);
  for (graph::VertexId v = 128; v + 1 < n; ++v) stats.add_edge(v, v + 1);
  const auto summary = stats.finish();
  ASSERT_FALSE(summary.heavy.empty());
  EXPECT_EQ(summary.heavy[0].root, 0u);
  EXPECT_EQ(summary.heavy[0].hot_vertex, 0u);
  EXPECT_EQ(summary.heavy[0].exact_size, 128u);
  EXPECT_GE(summary.heavy[0].endpoint_mass, 127u);  // overestimate-only
  EXPECT_GE(summary.heavy[0].approx_size, 128u);    // overestimate-only
  for (std::size_t i = 1; i < summary.heavy.size(); ++i)
    EXPECT_GE(summary.heavy[i - 1].endpoint_mass,
              summary.heavy[i].endpoint_mass);
}

TEST(StreamStats, DeterministicAcrossRuns) {
  const auto el = graph::make_gnm(512, 1024, 9);
  auto run = [&] {
    sketch::StreamStats stats(el.n);
    for (const auto& e : el.edges) stats.add_edge(e.u, e.v);
    return stats;
  };
  auto a = run();
  auto b = run();
  a.finish();
  b.finish();
  EXPECT_EQ(a.edge_hll(), b.edge_hll());
  EXPECT_EQ(a.vertex_hll(), b.vertex_hll());
  EXPECT_EQ(a.degree_cms(), b.degree_cms());
  EXPECT_EQ(a.component_hll(), b.component_hll());
  EXPECT_EQ(a.size_cms(), b.size_cms());
  EXPECT_EQ(a.labels(), b.labels());
}

}  // namespace
