#include "core/faster_cc.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/graph_algos.hpp"
#include "test_support.hpp"

namespace logcc::core {
namespace {

using logcc::testing::matches_oracle;

TEST(FasterCc, Zoo) {
  for (const auto& [name, el] : logcc::testing::small_zoo()) {
    auto r = faster_cc(el);
    EXPECT_TRUE(matches_oracle(el, r.labels)) << name;
  }
}

TEST(FasterCc, SeedsAgreeOnPartition) {
  auto el = graph::make_gnm(400, 1200, 19);
  FasterCcParams p;
  p.seed = 1;
  auto a = faster_cc(el, p);
  p.seed = 5555;
  auto b = faster_cc(el, p);
  EXPECT_TRUE(graph::same_partition(a.labels, b.labels));
}

TEST(FasterCc, RoundsGrowWithLogDiameterNotN) {
  // The headline claim, at test scale: doubling n at fixed structure
  // (star: d = 2) keeps rounds flat, while rounds grow ~log d on paths.
  FasterCcParams p;
  p.prepare_target_density = 1.0;  // isolate the Thm-3 loop from PREPARE
  auto star_small = faster_cc(graph::make_star(512), p);
  auto star_big = faster_cc(graph::make_star(8192), p);
  EXPECT_LE(star_big.stats.rounds, star_small.stats.rounds + 6);

  auto path_short = faster_cc(graph::make_path(64), p);
  auto path_long = faster_cc(graph::make_path(4096), p);
  EXPECT_GT(path_long.stats.rounds, path_short.stats.rounds);
  // log2(4096)=12: rounds should stay within a small multiple.
  EXPECT_LE(path_long.stats.rounds, 80u);
}

TEST(FasterCc, PostprocessMergesEqualLevelRoots) {
  // A graph with many same-level roots at break time (complete graph
  // collapses to diameter 1 instantly) must still end with one component.
  auto el = graph::make_complete(32);
  auto r = faster_cc(el);
  EXPECT_EQ(graph::count_components(graph::canonical_labels(r.labels)), 1u);
}

TEST(FasterCc, TinyRoundBudgetFallsBackCorrectly) {
  FasterCcParams p;
  p.max_rounds = 1;
  auto el = graph::make_path(500);
  auto r = faster_cc(el, p);
  EXPECT_TRUE(matches_oracle(el, r.labels));
}

TEST(FasterCc, MultiComponentMixedDiameters) {
  auto el = graph::disjoint_union(
      {graph::make_path(300), graph::make_complete(24),
       graph::make_gnm(200, 800, 3), graph::make_star(100)});
  auto r = faster_cc(el);
  EXPECT_TRUE(matches_oracle(el, r.labels));
}

TEST(FasterCc, EdgelessAndTiny) {
  graph::EdgeList empty;
  empty.n = 3;
  auto r = faster_cc(empty);
  EXPECT_EQ(graph::count_components(r.labels), 3u);

  graph::EdgeList one;
  one.n = 1;
  auto r1 = faster_cc(one);
  EXPECT_EQ(r1.labels.size(), 1u);
}

TEST(FasterCc, PreparePhasesReportedSeparately) {
  // A sparse path triggers COMPACT's PREPARE; the densification phases go
  // into prepare_phases, never into the theorem-loop counters.
  auto el = graph::make_path(2000);
  auto r = faster_cc(el);
  EXPECT_TRUE(r.stats.prepare_used);
  EXPECT_GT(r.stats.prepare_phases, 0u);
  EXPECT_GT(r.stats.rounds, 0u);
  // Auto budget is Θ(log log n), not Θ(log n): must stay small.
  EXPECT_LE(r.stats.prepare_phases, 24u);
}

TEST(FasterCc, NoPrepareWhenDisabled) {
  FasterCcParams p;
  p.prepare_max_phases = 0;
  auto el = graph::make_path(500);
  auto r = faster_cc(el, p);
  EXPECT_EQ(r.stats.prepare_phases, 0u);
  EXPECT_TRUE(matches_oracle(el, r.labels));
}

TEST(FasterCc, PolicyOverrideHonored) {
  auto el = graph::make_gnm(200, 600, 3);
  FasterCcParams p;
  core::ParamPolicy pol = core::ParamPolicy::practical(el.n, el.edges.size());
  pol.maxlink_iterations = 1;
  pol.growth = 2.0;
  p.policy_override = pol;
  auto r = faster_cc(el, p);
  EXPECT_TRUE(matches_oracle(el, r.labels));
}

TEST(FasterCc, SpaceLedgerLinearInM) {
  for (std::uint64_t n : {1000ULL, 4000ULL}) {
    auto el = graph::make_gnm(n, 4 * n, 7);
    auto r = faster_cc(el);
    EXPECT_LE(r.stats.peak_space_words, 96 * el.edges.size()) << n;
  }
}

TEST(FasterCc, FinisherRareAcrossSeeds) {
  auto el = graph::make_gnm(300, 900, 2);
  int finishers = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    FasterCcParams p;
    p.seed = seed;
    auto r = faster_cc(el, p);
    finishers += r.stats.finisher_used;
    EXPECT_TRUE(matches_oracle(el, r.labels)) << "seed " << seed;
  }
  EXPECT_LE(finishers, 1);
}

}  // namespace
}  // namespace logcc::core
