#include "core/building_blocks.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/graph_algos.hpp"
#include "test_support.hpp"

namespace logcc::core {
namespace {

TEST(Arcs, FromEdgesKeepsOriginalIndex) {
  graph::EdgeList el;
  el.n = 4;
  el.add(0, 1);
  el.add(2, 3);
  auto arcs = arcs_from_input(el);
  ASSERT_EQ(arcs.size(), 2u);
  EXPECT_EQ(arcs[0].orig, 0u);
  EXPECT_EQ(arcs[1].orig, 1u);
}

TEST(Alter, ReplacesEndpointsByParents) {
  graph::EdgeList el;
  el.n = 4;
  el.add(0, 1);
  el.add(1, 3);
  auto arcs = arcs_from_input(el);
  ParentForest f(4);
  f.set_parent(1, 0);
  f.set_parent(3, 2);
  alter(arcs, f);
  EXPECT_EQ(arcs[0].u, 0u);
  EXPECT_EQ(arcs[0].v, 0u);  // loop now
  EXPECT_EQ(arcs[1].u, 0u);
  EXPECT_EQ(arcs[1].v, 2u);
  EXPECT_EQ(arcs[1].orig, 1u);  // orig preserved
}

TEST(DropLoops, RemovesOnlyLoops) {
  std::vector<Arc> arcs{{0, 0, 0}, {0, 1, 1}, {2, 2, 2}};
  EXPECT_EQ(drop_loops(arcs), 2u);
  ASSERT_EQ(arcs.size(), 1u);
  EXPECT_EQ(arcs[0].orig, 1u);
}

TEST(DedupArcs, MergesUndirectedDuplicates) {
  std::vector<Arc> arcs{{1, 0, 5}, {0, 1, 7}, {2, 3, 1}};
  dedup_arcs(arcs);
  ASSERT_EQ(arcs.size(), 2u);
  EXPECT_EQ(arcs[0].u, 0u);
  EXPECT_EQ(arcs[0].v, 1u);
}

TEST(HasNonloop, Detects) {
  std::vector<Arc> loops{{0, 0, 0}, {3, 3, 1}};
  EXPECT_FALSE(has_nonloop(loops));
  loops.push_back({0, 1, 2});
  EXPECT_TRUE(has_nonloop(loops));
  EXPECT_FALSE(has_nonloop({}));
}

TEST(MarkOngoing, FlagsEndpointsOfNonloopArcs) {
  const std::vector<Arc> arcs{{0, 1, 0}, {2, 2, 1}, {3, 1, 2}};
  std::vector<std::uint8_t> flags{7, 7};  // stale contents are cleared
  EXPECT_EQ(mark_ongoing(5, arcs, flags), 3u);
  EXPECT_EQ(flags, (std::vector<std::uint8_t>{1, 1, 0, 1, 0}));
  EXPECT_EQ(mark_ongoing(5, {}, flags), 0u);
  EXPECT_EQ(flags, std::vector<std::uint8_t>(5, 0));
}

TEST(MarkOngoing, FlagsWhatCollectOngoingLists) {
  // Large enough for the parallel store pass and reduce; the isolated
  // vertices of a sparse G(n, m) must stay unflagged.
  const auto el = graph::make_gnm(20000, 15000, 4);
  const auto arcs = arcs_from_input(el);
  ParentForest f(el.n);
  std::vector<std::uint64_t> seen;
  std::vector<VertexId> ongoing;
  collect_ongoing(f, arcs, seen, ongoing);
  std::vector<std::uint8_t> flags;
  const std::uint64_t k = mark_ongoing(el.n, arcs, flags);
  EXPECT_EQ(k, ongoing.size());
  EXPECT_LT(k, el.n);
  for (VertexId v : ongoing) EXPECT_EQ(flags[v], 1u) << v;
}

TEST(DeterministicContract, SolvesZoo) {
  for (const auto& [name, el] : logcc::testing::small_zoo()) {
    ParentForest f(el.n);
    auto arcs = arcs_from_input(el);
    RunStats stats;
    deterministic_contract(f, arcs, stats);
    f.flatten();
    EXPECT_TRUE(logcc::testing::matches_oracle(el, f.root_labels())) << name;
  }
}

TEST(DeterministicContract, LogRounds) {
  auto el = graph::make_path(1024);
  ParentForest f(el.n);
  auto arcs = arcs_from_input(el);
  RunStats stats;
  std::uint64_t rounds = deterministic_contract(f, arcs, stats);
  EXPECT_LE(rounds, 2 * 10 + 4u);  // ~2 log2(1024)
}

TEST(DeterministicContract, ResumesFromPartialForest) {
  // Pre-link half the path, then contract the rest.
  auto el = graph::make_path(40);
  ParentForest f(el.n);
  for (VertexId v = 1; v < 20; ++v) f.set_parent(v, 0);
  auto arcs = arcs_from_input(el);
  RunStats stats;
  deterministic_contract(f, arcs, stats);
  f.flatten();
  EXPECT_TRUE(logcc::testing::matches_oracle(el, f.root_labels()));
}

TEST(DeterministicContractSf, ProducesValidForest) {
  for (const auto& [name, el] : logcc::testing::small_zoo()) {
    ParentForest f(el.n);
    auto arcs = arcs_from_input(el);
    std::vector<std::uint8_t> in_forest(el.edges.size(), 0);
    RunStats stats;
    deterministic_contract_sf(f, arcs, in_forest, stats);
    std::vector<std::uint64_t> edges;
    for (std::uint64_t i = 0; i < in_forest.size(); ++i)
      if (in_forest[i]) edges.push_back(i);
    auto check = graph::validate_spanning_forest(el, edges);
    EXPECT_TRUE(check.ok) << name << ": " << check.error;
  }
}

}  // namespace
}  // namespace logcc::core
