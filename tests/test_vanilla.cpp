#include "core/vanilla.hpp"

#include <gtest/gtest.h>

#include "core/cc_theorem1.hpp"
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
    for (std::uint64_t v = 0; v < el.n; ++v) {
      for (std::uint64_t w = v + 1; w < el.n; ++w) {
        if (prev[v] == prev[w]) {
          EXPECT_EQ(cur[v], cur[w]);
        }
      }
    }
    prev = std::move(cur);
  }
}

// ---- PREPARE: the one densification loop of Theorems 1, 2 and 3.

struct PrepareRun {
  ParentForest forest;
  std::vector<Arc> arcs;
  std::uint64_t m0 = 0;
  RunStats stats;
  std::uint64_t ran = 0;
};

PrepareRun run_prepare(const graph::EdgeList& el, double target,
                       std::uint64_t max_phases) {
  PrepareRun r;
  r.forest.reset(el.n);
  r.arcs = arcs_from_input(el);
  drop_loops(r.arcs);
  dedup_arcs(r.arcs);
  r.m0 = r.arcs.size();
  r.ran = prepare(r.forest, r.arcs, r.m0, {3, 0x77, target, max_phases},
                  r.stats);
  return r;
}

double density(const PrepareRun& r) {
  std::vector<std::uint8_t> flags;
  const std::uint64_t k = mark_ongoing(r.forest.size(), r.arcs, flags);
  return static_cast<double>(r.m0) / std::max<double>(1.0, double(k));
}

TEST(Prepare, StopsAtDensityTarget) {
  const auto el = graph::make_path(4096);
  const PrepareRun r = run_prepare(el, 8.0, 1000);
  ASSERT_GT(r.ran, 0u);
  EXPECT_LT(r.ran, 1000u);
  EXPECT_FALSE(r.arcs.empty());  // stopped by density, not solved
  EXPECT_GE(density(r), 8.0);
  // The same coins with one phase less stay below the target, so PREPARE
  // stopped at the first phase that reached it.
  EXPECT_LT(density(run_prepare(el, 8.0, r.ran - 1)), 8.0);
}

TEST(Prepare, StopsAtPhaseBudget) {
  const auto el = graph::make_path(4096);
  const PrepareRun three = run_prepare(el, 1e9, 3);
  EXPECT_EQ(three.ran, 3u);
  EXPECT_FALSE(three.arcs.empty());
  // The auto budget on a path: 2 · log2(log2 4096) + 4 = 11 phases.
  const PrepareRun automatic = run_prepare(el, 1e9, PrepareRule::kAutoPhases);
  EXPECT_EQ(automatic.ran, 11u);
  EXPECT_FALSE(automatic.arcs.empty());
}

TEST(Prepare, StopsWhenNoNonloopArcLeft) {
  const auto el = graph::disjoint_union(
      {graph::make_star(64), graph::make_cycle(9)});
  const PrepareRun r = run_prepare(el, 1e9, 4096);
  EXPECT_GT(r.ran, 0u);
  EXPECT_LT(r.ran, 4096u);
  EXPECT_TRUE(r.arcs.empty());
  ParentForest forest = r.forest;
  forest.flatten();
  EXPECT_TRUE(logcc::testing::matches_oracle(el, forest.root_labels()));
}

TEST(Prepare, PhasesCountAsPreparePhasesOnly) {
  const auto el = graph::make_path(4096);
  ParentForest forest(el.n);
  auto arcs = arcs_from_input(el);
  RunStats stats;
  stats.phases = 7;  // a caller's own phases are left alone
  const std::uint64_t ran =
      prepare(forest, arcs, arcs.size(), {1, 0, 1e9, 5}, stats);
  EXPECT_EQ(ran, 5u);
  EXPECT_EQ(stats.prepare_phases, 5u);
  EXPECT_EQ(stats.phases, 7u);
  EXPECT_TRUE(stats.prepare_used);
  EXPECT_EQ(stats.pram_steps, 5u * 5u);
}

TEST(Prepare, UnusedWhenNoPhaseRuns) {
  // Dense enough already (a cycle has m0 / #ongoing = 1): no phase, so
  // prepare_used stays false.
  const PrepareRun dense = run_prepare(graph::make_cycle(64), 1.0, 100);
  EXPECT_EQ(dense.ran, 0u);
  EXPECT_EQ(dense.stats.prepare_phases, 0u);
  EXPECT_FALSE(dense.stats.prepare_used);
  const PrepareRun no_budget = run_prepare(graph::make_path(64), 1e9, 0);
  EXPECT_EQ(no_budget.ran, 0u);
  EXPECT_FALSE(no_budget.stats.prepare_used);
}

TEST(Prepare, ForestPrepareMarksOneInputEdgePerLink) {
  const auto el = graph::make_gnm(300, 450, 5);
  ParentForest forest(el.n);
  auto arcs = arcs_from_input(el);
  drop_loops(arcs);
  dedup_arcs(arcs);
  std::vector<std::uint8_t> in_forest(el.edges.size(), 0);
  RunStats stats;
  prepare(forest, arcs, arcs.size(), {2, 0, 1e9, 4}, stats, &in_forest);
  std::uint64_t marked = 0;
  for (std::uint8_t f : in_forest) marked += f;
  std::uint64_t roots = 0;
  for (std::uint64_t v = 0; v < el.n; ++v)
    roots += forest.is_root(static_cast<VertexId>(v)) ? 1 : 0;
  EXPECT_GT(marked, 0u);
  EXPECT_EQ(marked, el.n - roots);
}

TEST(Prepare, Theorem1IgnoresIsolatedVertices) {
  // 400 dense vertices plus 9,600 isolated ones: m0/n is below the target,
  // but m0 / #ongoing is not, so PREPARE runs no phase and is not used.
  auto el = graph::make_gnm(400, 26000, 3);
  el.n = 10000;
  const CcResult r = theorem1_cc(el);
  EXPECT_EQ(r.stats.prepare_phases, 0u);
  EXPECT_FALSE(r.stats.prepare_used);
  EXPECT_TRUE(logcc::testing::matches_oracle(el, r.labels));
}

// Every phase loop ends when no arc is left, so a list of only self-loops
// must run no phase: vanilla_phases and PREPARE drop them on entry, and
// theorem1_phases right after its dedup.
TEST(PhaseLoops, LoopOnlyInputRunsNoPhase) {
  const std::vector<Arc> loops{{0, 0, 0}, {3, 3, 1}, {3, 3, 2}, {7, 7, 3}};
  {
    ParentForest forest(8);
    auto arcs = loops;
    RunStats stats;
    EXPECT_EQ(vanilla_phases(forest, arcs, VanillaOptions{}, stats), 0u);
    EXPECT_TRUE(arcs.empty());
    EXPECT_EQ(stats.phases, 0u);
    EXPECT_EQ(stats.pram_steps, 0u);
  }
  {
    ParentForest forest(8);
    auto arcs = loops;
    RunStats stats;
    EXPECT_EQ(prepare(forest, arcs, 4, {1, 0, 1e9, 10}, stats), 0u);
    EXPECT_EQ(stats.prepare_phases, 0u);
    EXPECT_FALSE(stats.prepare_used);
  }
  {
    ParentForest forest(8);
    auto arcs = loops;
    RunStats stats;
    theorem1_phases(forest, arcs, 4, Theorem1Params{}, stats);
    EXPECT_TRUE(arcs.empty());
    EXPECT_EQ(stats.phases, 0u);
    EXPECT_FALSE(stats.finisher_used);
    EXPECT_EQ(forest.root_labels(),
              (std::vector<VertexId>{0, 1, 2, 3, 4, 5, 6, 7}));
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
