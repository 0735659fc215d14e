#include "core/vanilla.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/graph_algos.hpp"
#include "test_support.hpp"

namespace logcc::core {
namespace {

using logcc::testing::matches_oracle;

TEST(Vanilla, Zoo) {
  for (const auto& [name, el] : logcc::testing::small_zoo()) {
    auto r = vanilla_cc(el, 5);
    EXPECT_TRUE(matches_oracle(el, r.labels)) << name;
  }
}

TEST(Vanilla, DifferentSeedsSamePartition) {
  auto el = graph::make_gnm(150, 400, 8);
  auto a = vanilla_cc(el, 1);
  auto b = vanilla_cc(el, 424242);
  EXPECT_TRUE(graph::same_partition(a.labels, b.labels));
}

TEST(Vanilla, LogNPhases) {
  auto el = graph::make_path(2048);
  auto r = vanilla_cc(el, 3);
  // Reif: O(log n) phases w.h.p. log2(2048) = 11; allow 4x.
  EXPECT_LE(r.stats.phases, 44u);
  EXPECT_GE(r.stats.phases, 5u);
}

TEST(Vanilla, PhasesIndependentOfDiameterShape) {
  // Vanilla is Θ(log n) regardless of d — the contrast Theorem 3 beats.
  auto low_d = vanilla_cc(graph::make_star(4096), 7);
  auto high_d = vanilla_cc(graph::make_path(4096), 7);
  // Both in the same Θ(log n) ballpark (allow generous slack).
  EXPECT_LE(low_d.stats.phases * 6, high_d.stats.phases * 10 + 60);
  EXPECT_LE(high_d.stats.phases, 50u);
}

TEST(Vanilla, MaxPhasesRespected) {
  auto el = graph::make_path(512);
  ParentForest f(el.n);
  auto arcs = arcs_from_input(el);
  RunStats stats;
  VanillaOptions opt;
  opt.seed = 3;
  opt.max_phases = 2;
  std::uint64_t ran = vanilla_phases(f, arcs, opt, stats);
  EXPECT_LE(ran, 2u);
  EXPECT_EQ(stats.phases, ran);
  EXPECT_TRUE(f.acyclic());
}

TEST(Vanilla, TreesFlatBetweenPhases) {
  auto el = graph::make_gnm(100, 240, 13);
  ParentForest f(el.n);
  auto arcs = arcs_from_input(el);
  RunStats stats;
  VanillaOptions opt;
  opt.seed = 5;
  opt.max_phases = 1;
  for (int phase = 0; phase < 8; ++phase) {
    vanilla_phases(f, arcs, opt, stats);
    EXPECT_TRUE(f.all_flat()) << "phase " << phase;
    EXPECT_TRUE(f.acyclic());
  }
}

TEST(Vanilla, MonotoneNoSplit) {
  // Monotonicity (§2.1): partitions only coarsen over phases.
  auto el = graph::make_gnm(80, 200, 21);
  ParentForest f(el.n);
  auto arcs = arcs_from_input(el);
  RunStats stats;
  VanillaOptions opt;
  opt.seed = 9;
  opt.max_phases = 1;
  std::vector<VertexId> prev = f.root_labels();
  for (int phase = 0; phase < 10; ++phase) {
    vanilla_phases(f, arcs, opt, stats);
    std::vector<VertexId> cur = f.root_labels();
    // Every pair together before must stay together.
    for (std::uint64_t v = 0; v < el.n; ++v)
      for (std::uint64_t w = v + 1; w < el.n; ++w)
        if (prev[v] == prev[w]) EXPECT_EQ(cur[v], cur[w]);
    prev = std::move(cur);
  }
}

TEST(VanillaSf, ForestValidOnZoo) {
  for (const auto& [name, el] : logcc::testing::small_zoo()) {
    auto r = vanilla_sf(el, 17);
    auto check = graph::validate_spanning_forest(el, r.forest_edges);
    EXPECT_TRUE(check.ok) << name << ": " << check.error;
  }
}

TEST(VanillaSf, ForestSizeMatchesComponents) {
  auto el = graph::disjoint_union(
      {graph::make_cycle(20), graph::make_gnm(50, 120, 3)});
  auto r = vanilla_sf(el, 23);
  auto oracle = logcc::testing::oracle_labels(el);
  EXPECT_EQ(r.forest_edges.size(), el.n - graph::count_components(oracle));
}

TEST(VanillaSf, MarksOnlyInputEdges) {
  auto el = graph::make_gnm(60, 150, 31);
  auto r = vanilla_sf(el, 29);
  for (std::uint64_t idx : r.forest_edges) EXPECT_LT(idx, el.edges.size());
}

}  // namespace
}  // namespace logcc::core
