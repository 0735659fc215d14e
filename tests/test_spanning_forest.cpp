#include "core/spanning_forest.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/graph_algos.hpp"
#include "test_support.hpp"

namespace logcc::core {
namespace {

void expect_valid_forest(const graph::EdgeList& el, const SfResult& r,
                         const std::string& name) {
  auto check = graph::validate_spanning_forest(el, r.forest_edges);
  EXPECT_TRUE(check.ok) << name << ": " << check.error;
}

TEST(Theorem2, Zoo) {
  for (const auto& [name, el] : logcc::testing::small_zoo()) {
    auto r = theorem2_sf(el);
    expect_valid_forest(el, r, name);
  }
}

TEST(Theorem2, ForestEdgeCountEqualsNMinusComponents) {
  auto el = graph::disjoint_union(
      {graph::make_gnm(100, 260, 4), graph::make_cycle(30),
       graph::make_star(20)});
  auto r = theorem2_sf(el);
  auto oracle = logcc::testing::oracle_labels(el);
  EXPECT_EQ(r.forest_edges.size(), el.n - graph::count_components(oracle));
}

TEST(Theorem2, ForestEdgesAreInputEdges) {
  auto el = graph::make_gnm(120, 400, 6);
  auto r = theorem2_sf(el);
  for (std::uint64_t idx : r.forest_edges) ASSERT_LT(idx, el.edges.size());
}

TEST(Theorem2, SeedsAllValid) {
  auto el = graph::make_gnm(150, 500, 8);
  for (std::uint64_t seed : {1ULL, 7ULL, 99ULL, 12345ULL}) {
    SpanningForestParams p;
    p.seed = seed;
    auto r = theorem2_sf(el, p);
    expect_valid_forest(el, r, "seed " + std::to_string(seed));
  }
}

TEST(Theorem2, DensePathMixture) {
  // Dense core + long tail: stresses both the leader election and the
  // β-layer linking along the tail.
  auto el = graph::make_lollipop(64, 200);
  auto r = theorem2_sf(el);
  expect_valid_forest(el, r, "lollipop");
  EXPECT_EQ(r.forest_edges.size(), el.n - 1);
}

TEST(Theorem2, SparseUsesForestPrepare) {
  auto el = graph::make_path(1500);
  auto r = theorem2_sf(el);
  EXPECT_TRUE(r.stats.prepare_used);
  expect_valid_forest(el, r, "path");
}

TEST(Theorem2, ForcedFinisherStillValid) {
  SpanningForestParams p;
  p.max_phases = 1;
  p.prepare_max_phases = 0;  // no help from FOREST-PREPARE either
  auto el = graph::make_grid(20, 20);
  auto r = theorem2_sf(el, p);
  EXPECT_TRUE(r.stats.finisher_used);
  expect_valid_forest(el, r, "grid under finisher");
}

TEST(Theorem2, NTildeRuleHonoured) {
  // exact_count = false sizes every phase from the ñ of §B.5, as in
  // Theorem 1, instead of the exact ongoing count.
  SpanningForestParams approx;
  approx.exact_count = false;
  for (const auto& [name, el] : logcc::testing::small_zoo())
    expect_valid_forest(el, theorem2_sf(el, approx), name + " (ñ)");
  // The rule reaches the sizing: ñ starts at n, above the ongoing count.
  auto el = graph::make_grid(30, 30);
  const auto exact = theorem2_sf(el);
  const auto tilde = theorem2_sf(el, approx);
  ASSERT_GT(exact.stats.phases, 0u);
  EXPECT_NE(tilde.stats.total_block_words, exact.stats.total_block_words);
  expect_valid_forest(el, tilde, "grid30x30 (ñ)");
}

TEST(Theorem2, PhaseCountTracksTheorem1) {
  // Same asymptotics as Theorem 1 (the paper's point): phases stay small on
  // a dense low-diameter graph.
  auto el = graph::make_gnm(256, 8192, 10);
  auto r = theorem2_sf(el);
  EXPECT_LE(r.stats.phases, 10u);
}

TEST(Theorem2, EdgelessGraph) {
  graph::EdgeList el;
  el.n = 9;
  auto r = theorem2_sf(el);
  EXPECT_TRUE(r.forest_edges.empty());
}

TEST(Theorem2, SingleEdge) {
  graph::EdgeList el;
  el.n = 2;
  el.add(0, 1);
  auto r = theorem2_sf(el);
  ASSERT_EQ(r.forest_edges.size(), 1u);
  EXPECT_EQ(r.forest_edges[0], 0u);
}

TEST(Theorem2, ParallelEdgesPickOne) {
  graph::EdgeList el;
  el.n = 2;
  el.add(0, 1);
  el.add(0, 1);
  el.add(1, 0);
  auto r = theorem2_sf(el);
  EXPECT_EQ(r.forest_edges.size(), 1u);
}

// ---- Determinism contract: the parallel TREE-LINK (fetch-min link choice,
// idempotent leader-neighbour marks) must pick the same forest edges for
// every thread count (mirrors tests/test_scan.cpp), and count the same
// RunStats: its hash_collisions tally follows the order each slot walks
// Q(u) and H_j.

using logcc::testing::ThreadInvariance;

TEST_F(ThreadInvariance, ForestEdgesIdenticalAcrossThreads) {
  auto el = graph::make_gnm(20000, 60000, 41);
  util::set_parallelism(1);
  auto one = theorem2_sf(el);
  expect_valid_forest(el, one, "threads=1");
  for (int threads : {2, 8}) {
    util::set_parallelism(threads);
    auto many = theorem2_sf(el);
    EXPECT_EQ(one.forest_edges, many.forest_edges) << "threads=" << threads;
    EXPECT_EQ(one.stats, many.stats) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace logcc::core
