#include "core/expand_maxlink.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "graph/generators.hpp"
#include "graph/graph_algos.hpp"
#include "test_support.hpp"
#include "util/parallel.hpp"

namespace logcc::core {
namespace {

struct MlHarness {
  explicit MlHarness(const graph::EdgeList& el, std::uint64_t seed = 7) {
    arcs = arcs_from_input(el);
    exists.assign(el.n, 1);
    policy = ParamPolicy::practical(el.n, std::max<std::uint64_t>(el.edges.size(), 1));
    engine = std::make_unique<ExpandMaxlink>(el.n, arcs, exists, policy, seed,
                                             stats);
  }
  std::vector<Arc> arcs;
  std::vector<std::uint8_t> exists;
  ParamPolicy policy;
  RunStats stats;
  std::unique_ptr<ExpandMaxlink> engine;
};

TEST(ExpandMaxlink, LevelInvariantHoldsEveryRound) {
  auto el = graph::make_gnm(128, 384, 5);
  MlHarness h(el);
  for (int r = 0; r < 20; ++r) {
    bool done = h.engine->round();
    EXPECT_TRUE(level_invariant_holds(h.engine->forest(), h.engine->levels()))
        << "round " << r;
    EXPECT_TRUE(h.engine->forest().acyclic()) << "round " << r;
    if (done) break;
  }
}

TEST(ExpandMaxlink, BreaksOnPathInLogDRounds) {
  auto el = graph::make_path(256);
  MlHarness h(el);
  std::uint64_t rounds = 0;
  bool done = false;
  while (!done && rounds < 200) {
    done = h.engine->round();
    ++rounds;
  }
  EXPECT_TRUE(done) << "EXPAND-MAXLINK never reached its break condition";
  // log2(255) = 8; allow a generous constant for level churn.
  EXPECT_LE(rounds, 64u);
}

TEST(ExpandMaxlink, BreakConditionImpliesDiameterOne) {
  auto el = graph::make_grid(8, 8);
  MlHarness h(el);
  bool done = false;
  for (int r = 0; r < 200 && !done; ++r) done = h.engine->round();
  ASSERT_TRUE(done);
  EXPECT_TRUE(h.engine->forest().all_flat());
  // Every remaining non-loop arc must connect two roots in the same
  // component at distance 1 — i.e. the remaining graph is a clique-ish
  // diameter-≤1 graph per component. Check: arcs only connect roots.
  for (const Arc& a : h.engine->remaining_arcs()) {
    EXPECT_TRUE(h.engine->forest().is_root(a.u));
    EXPECT_TRUE(h.engine->forest().is_root(a.v));
  }
}

TEST(ExpandMaxlink, PreservesComponentPartition) {
  auto el = graph::disjoint_union(
      {graph::make_path(40), graph::make_cycle(33), graph::make_star(21)});
  MlHarness h(el);
  bool done = false;
  for (int r = 0; r < 300 && !done; ++r) done = h.engine->round();
  ASSERT_TRUE(done);
  // No tree spans two components; every root's tree stays within one
  // original component.
  auto oracle = graph::bfs_components(graph::Graph::from_edges(el));
  auto labels = h.engine->forest().root_labels();
  for (std::uint64_t v = 0; v < el.n; ++v)
    for (std::uint64_t w = v + 1; w < el.n; ++w) {
      if (labels[v] == labels[w]) {
        EXPECT_EQ(oracle[v], oracle[w]);
      }
    }
}

TEST(ExpandMaxlink, LevelsStayBelowSaturationPlusSlack) {
  // Lemma 3.19 analogue: levels are bounded by the saturation level plus a
  // small constant (collision-forced raises at the cap).
  auto el = graph::make_gnm(256, 1024, 9);
  MlHarness h(el);
  bool done = false;
  for (int r = 0; r < 300 && !done; ++r) done = h.engine->round();
  std::uint32_t sat = h.policy.saturation_level();
  EXPECT_LE(h.stats.max_level, sat + 12);
}

TEST(ExpandMaxlink, BudgetsFollowLevels) {
  auto el = graph::make_gnm(128, 512, 3);
  MlHarness h(el);
  for (int r = 0; r < 10; ++r) {
    bool done = h.engine->round();
    const auto& levels = h.engine->levels();
    const auto& budgets = h.engine->budgets();
    for (std::uint64_t v = 0; v < el.n; ++v) {
      if (!h.engine->forest().is_root(static_cast<VertexId>(v))) continue;
      if (levels[v] == 0) continue;
      EXPECT_EQ(budgets[v], h.policy.budget_for_level(levels[v]))
          << "root " << v;
    }
    if (done) break;
  }
}

TEST(ExpandMaxlink, GhostVerticesUntouched) {
  auto el = graph::make_path(10);
  std::vector<Arc> arcs = arcs_from_input(el);
  std::vector<std::uint8_t> exists(el.n, 1);
  exists[9] = 0;  // pretend 9 is a compaction ghost (and drop its arc)
  arcs.pop_back();
  ParamPolicy policy = ParamPolicy::practical(el.n, el.edges.size());
  RunStats stats;
  ExpandMaxlink engine(el.n, arcs, exists, policy, 3, stats);
  for (int r = 0; r < 50; ++r)
    if (engine.round()) break;
  EXPECT_EQ(engine.levels()[9], 0u);
  EXPECT_EQ(engine.budgets()[9], 0u);
  EXPECT_TRUE(engine.forest().is_root(9));
}

TEST(ExpandMaxlink, SpaceLedgerBounded) {
  auto el = graph::make_gnm(512, 2048, 13);
  MlHarness h(el);
  bool done = false;
  for (int r = 0; r < 300 && !done; ++r) done = h.engine->round();
  // O(m) with a practical constant: blocks + arcs + added edges.
  EXPECT_LE(h.stats.peak_space_words, 512 * el.edges.size());
}

TEST(ExpandMaxlink, TraceRecordsPerRoundAggregates) {
  auto el = graph::make_path(512);
  MlHarness h(el);
  h.engine->enable_trace();
  bool done = false;
  for (int r = 0; r < 100 && !done; ++r) done = h.engine->round();
  ASSERT_TRUE(done);
  const auto& trace = h.engine->trace();
  ASSERT_EQ(trace.size(), h.engine->rounds_run());
  // Rounds are numbered consecutively; roots never increase.
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].round, i + 1);
    if (i > 0) {
      EXPECT_LE(trace[i].roots, trace[i - 1].roots);
    }
    EXPECT_LE(trace[i].active_roots, trace[i].roots);
  }
  // The break condition may leave distance-1 remnants (equal-level adjacent
  // roots whose raise coins all missed) — those go to the Theorem-1
  // postprocess — but the final trace row must agree with the engine's
  // remaining graph: active_roots counts exactly the roots that still have
  // a non-loop arc.
  std::set<VertexId> active_now;
  for (const Arc& a : h.engine->remaining_arcs()) {
    if (a.u == a.v) continue;
    active_now.insert(a.u);
    active_now.insert(a.v);
  }
  EXPECT_EQ(trace.back().active_roots, active_now.size());
  for (VertexId v : active_now)
    EXPECT_TRUE(h.engine->forest().is_root(v));
  EXPECT_GE(trace.front().raises + trace.front().collisions, 1u);
}

TEST(ExpandMaxlink, TraceOffByDefault) {
  auto el = graph::make_path(16);
  MlHarness h(el);
  h.engine->round();
  EXPECT_TRUE(h.engine->trace().empty());
}

TEST(ExpandMaxlink, RoundCounterAdvances) {
  auto el = graph::make_cycle(16);
  MlHarness h(el);
  h.engine->round();
  h.engine->round();
  EXPECT_EQ(h.engine->rounds_run(), 2u);
  EXPECT_EQ(h.stats.rounds, 2u);
}

// ---- Determinism contract: the whole round loop — forest, levels,
// budgets, remaining arcs and the stats ledger — is bit-identical for
// every thread count (mirrors tests/test_scan.cpp).

using logcc::testing::ThreadInvariance;

struct MlOutcome {
  std::vector<VertexId> parents;
  std::vector<std::uint32_t> levels;
  std::vector<std::uint64_t> budgets;
  std::vector<Arc> remaining;
  std::uint64_t rounds = 0;
  std::uint64_t collisions = 0;
  std::uint64_t raises = 0;
  friend bool operator==(const MlOutcome&, const MlOutcome&) = default;
};

MlOutcome run_maxlink(const graph::EdgeList& el, int threads) {
  util::set_parallelism(threads);
  MlHarness h(el, 5);
  bool done = false;
  for (int r = 0; r < 300 && !done; ++r) done = h.engine->round();
  EXPECT_TRUE(done);
  MlOutcome out;
  out.parents = h.engine->forest().raw();
  out.levels = h.engine->levels();
  out.budgets = h.engine->budgets();
  out.remaining = h.engine->remaining_arcs();
  out.rounds = h.engine->rounds_run();
  out.collisions = h.stats.hash_collisions;
  out.raises = h.stats.level_raises;
  return out;
}

TEST_F(ThreadInvariance, RoundLoopIdenticalAcrossThreads) {
  // Big enough that the packed fetch-max MAXLINK, the grouped table fills
  // and the bucketed dedup all take their parallel paths.
  auto el = graph::make_gnm(20000, 60000, 17);
  MlOutcome one = run_maxlink(el, 1);
  for (int threads : {2, 8}) {
    MlOutcome many = run_maxlink(el, threads);
    EXPECT_EQ(one, many) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace logcc::core
