#include "core/building_blocks.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "graph/generators.hpp"
#include "graph/graph_algos.hpp"
#include "test_support.hpp"
#include "util/random.hpp"

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

// Sizes around the radix cutoff (256), the serial grain (4,096) and the
// one-bucket cutoff (16,384). Below the last, dedup_arcs runs one bucket,
// whose output is the fully sorted reference itself; from it on, the
// output is bucket-major, so it is compared as a set. The wide run, and a
// run on the same pairs as graph::Edge (no orig, as the Liu–Tarjan lab
// dedups its ALTER list), must give the narrow run's pairs element for
// element.
TEST(DedupArcs, MatchesSortUniqueAcrossSizes) {
  for (const std::size_t m : {255u, 256u, 4095u, 4096u, 16383u, 16384u}) {
    // Duplicate-heavy: about four copies of each pair from a small id
    // range, in both orientations, with orig ids in descending order so
    // the minimum is not the first copy.
    const VertexId n = static_cast<VertexId>(std::sqrt(m / 2.0)) + 2;
    std::vector<Arc> arcs(m);
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint64_t h = util::mix64(m, i);
      arcs[i] = {static_cast<VertexId>(h % n),
                 static_cast<VertexId>((h >> 32) % n),
                 static_cast<Arc::OrigId>(m - i)};
    }
    std::vector<Arc64> wide(m);
    std::vector<graph::Edge> edges(m);
    for (std::size_t i = 0; i < m; ++i) {
      wide[i] = {arcs[i].u, arcs[i].v, arcs[i].orig};
      edges[i] = {arcs[i].u, arcs[i].v};
    }

    auto reference = arcs;
    for (Arc& a : reference)
      if (a.u > a.v) std::swap(a.u, a.v);
    std::sort(reference.begin(), reference.end(),
              [](const Arc& a, const Arc& b) {
                return std::tie(a.u, a.v, a.orig) < std::tie(b.u, b.v, b.orig);
              });
    reference.erase(std::unique(reference.begin(), reference.end(),
                                [](const Arc& a, const Arc& b) {
                                  return a.u == b.u && a.v == b.v;
                                }),
                    reference.end());

    dedup_arcs(arcs);
    dedup_arcs(wide);
    dedup_arcs(edges);
    ASSERT_EQ(wide.size(), arcs.size()) << "m=" << m;
    ASSERT_EQ(edges.size(), arcs.size()) << "m=" << m;
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      ASSERT_EQ(wide[i].u, arcs[i].u) << "m=" << m << " i=" << i;
      ASSERT_EQ(wide[i].v, arcs[i].v) << "m=" << m << " i=" << i;
      ASSERT_EQ(wide[i].orig, arcs[i].orig) << "m=" << m << " i=" << i;
      ASSERT_EQ(edges[i], (graph::Edge{arcs[i].u, arcs[i].v}))
          << "m=" << m << " i=" << i;
    }
    if (m >= 16384) {
      std::sort(arcs.begin(), arcs.end(), [](const Arc& a, const Arc& b) {
        return std::tie(a.u, a.v) < std::tie(b.u, b.v);
      });
    }
    EXPECT_EQ(arcs, reference) << "m=" << m;
  }
}

TEST(MarkOngoing, FlagsEndpointsOfNonloopArcs) {
  const std::vector<Arc> arcs{{0, 1, 0}, {2, 2, 1}, {3, 1, 2}};
  std::vector<std::uint8_t> flags{7, 7};  // stale contents are cleared
  EXPECT_EQ(mark_ongoing(5, arcs, flags), 3u);
  EXPECT_EQ(flags, (std::vector<std::uint8_t>{1, 1, 0, 1, 0}));
  EXPECT_EQ(mark_ongoing(5, {}, flags), 0u);
  EXPECT_EQ(flags, std::vector<std::uint8_t>(5, 0));
}

TEST(CollectOngoing, ListsTheFlaggedIdsInIdOrder) {
  // Large enough for the parallel store pass, reduce and pack; the isolated
  // vertices of a sparse G(n, m) must stay unflagged. A loop arc flags
  // nothing.
  const auto el = graph::make_gnm(20000, 15000, 4);
  auto arcs = arcs_from_input(el);
  arcs.push_back({19999, 19999, 0});
  ParentForest f(el.n);
  std::vector<std::uint8_t> flags{7, 7, 7};  // stale scratch is fine
  std::vector<VertexId> ongoing{42};          // cleared, then refilled
  collect_ongoing(f, arcs, flags, ongoing);
  std::vector<std::uint8_t> expected_flags;
  const std::uint64_t k = mark_ongoing(el.n, arcs, expected_flags);
  EXPECT_EQ(flags, expected_flags);
  EXPECT_LT(k, el.n);
  std::vector<VertexId> expected;
  for (std::uint64_t v = 0; v < el.n; ++v)
    if (expected_flags[v]) expected.push_back(static_cast<VertexId>(v));
  EXPECT_EQ(ongoing, expected);
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
