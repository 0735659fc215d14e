#include "core/vote.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>

#include "graph/generators.hpp"
#include "test_support.hpp"
#include "util/parallel.hpp"

namespace logcc::core {
namespace {

struct VoteHarness {
  VoteHarness(const graph::EdgeList& el, ExpandParams p) {
    arcs = arcs_from_input(el);
    drop_loops(arcs);
    for (std::uint64_t v = 0; v < el.n; ++v)
      ongoing.push_back(static_cast<VertexId>(v));
    engine =
        std::make_unique<ExpandEngine>(el.n, ongoing, arcs, p, stats, scratch);
    engine->run();
  }
  std::vector<Arc> arcs;
  std::vector<VertexId> ongoing;
  RunStats stats;
  ExpandScratch scratch;  // outlives the engine, which restores its slot map
  std::unique_ptr<ExpandEngine> engine;
};

ExpandParams generous(std::uint64_t n) {
  ExpandParams p;
  p.block_count = 64 * n + 7;
  p.table_capacity = static_cast<std::uint32_t>(16 * n + 3);
  p.seed = 777;
  p.max_rounds = 32;
  return p;
}

TEST(Vote, LiveComponentsElectExactlyTheMinId) {
  auto el = graph::disjoint_union({graph::make_path(9), graph::make_cycle(7)});
  VoteHarness h(el, generous(el.n));
  VoteParams vp;
  vp.dormant_leader_prob = 0.5;
  vp.seed = 3;
  RunStats stats;
  std::vector<std::uint8_t> leader;
  vote(*h.engine, vp, stats, leader);
  // All vertices are live here; leaders must be vertex 0 (first path) and
  // vertex 9 (min of the cycle's id range), nothing else.
  for (std::uint32_t s = 0; s < h.engine->num_slots(); ++s) {
    VertexId v = h.engine->vertex_of(s);
    EXPECT_EQ(leader[s] == 1, v == 0 || v == 9) << "vertex " << v;
  }
}

TEST(Vote, DormantLeaderRateMatchesProbability) {
  // Make everyone fully dormant (no blocks): election is a pure Bernoulli.
  // No table is ever filled, so a small capacity keeps the slab small.
  auto el = graph::make_path(4000);
  ExpandParams p = generous(el.n);
  p.block_count = 1;
  p.table_capacity = 8;
  VoteHarness h(el, p);
  VoteParams vp;
  vp.dormant_leader_prob = 0.25;
  vp.seed = 99;
  RunStats stats;
  std::vector<std::uint8_t> leader;
  vote(*h.engine, vp, stats, leader);
  double rate =
      static_cast<double>(std::count(leader.begin(), leader.end(), 1)) /
      static_cast<double>(leader.size());
  EXPECT_NEAR(rate, 0.25, 0.03);
}

TEST(Vote, DormantZeroProbabilityElectsNobody) {
  auto el = graph::make_path(64);
  ExpandParams p = generous(el.n);
  p.block_count = 1;
  VoteHarness h(el, p);
  VoteParams vp;
  vp.dormant_leader_prob = 0.0;
  vp.seed = 5;
  RunStats stats;
  std::vector<std::uint8_t> leader;
  vote(*h.engine, vp, stats, leader);
  EXPECT_EQ(std::count(leader.begin(), leader.end(), 1), 0);
}

TEST(Vote, DeterministicForSeed) {
  auto el = graph::make_gnm(128, 256, 6);
  ExpandParams p = generous(el.n);
  p.table_capacity = 4;  // mix of live and dormant
  VoteHarness h(el, p);
  VoteParams vp;
  vp.dormant_leader_prob = 0.3;
  vp.seed = 42;
  RunStats s1, s2;
  std::vector<std::uint8_t> first, second;
  vote(*h.engine, vp, s1, first);
  vote(*h.engine, vp, s2, second);
  EXPECT_EQ(first, second);
}

// ---- Determinism contract: the fused map + min vote pass yields the same
// leader vector for every thread count (mirrors tests/test_scan.cpp).

using logcc::testing::ThreadInvariance;

TEST_F(ThreadInvariance, LeaderVectorIdenticalAcrossThreads) {
  // Build the engine once (its own invariance is covered in
  // tests/test_expand.cpp), then sweep only the vote kernel. Tight tables
  // give a live / dormant mix so both branches run at scale.
  auto el = graph::make_gnm(20000, 60000, 13);
  ExpandParams p;
  p.block_count = 4 * el.n + 7;
  p.table_capacity = 8;
  p.seed = 1234;
  p.max_rounds = 40;
  VoteHarness h(el, p);
  VoteParams vp;
  vp.dormant_leader_prob = 0.3;
  vp.seed = 71;
  util::set_parallelism(1);
  RunStats s1;
  std::vector<std::uint8_t> one;
  vote(*h.engine, vp, s1, one);
  for (int threads : {2, 8}) {
    util::set_parallelism(threads);
    RunStats sn;
    std::vector<std::uint8_t> many;
    vote(*h.engine, vp, sn, many);
    EXPECT_EQ(one, many) << "threads=" << threads;
  }
}

// ---- Slot order: collect_ongoing lists the ongoing roots in id order, and
// nothing a phase computes may depend on that order. Every per-slot
// quantity is keyed by vertex id, and each table's inserts follow arc
// order, so a phase built on a shuffled list must give every vertex the
// same table cells, history, dormancy and leader flag, and the same
// collision and step counts.

struct PhaseByVertex {
  std::vector<std::vector<VertexId>> cells;
  std::vector<std::vector<std::vector<VertexId>>> history;  // [v][round]
  std::vector<std::uint8_t> owns_block;
  std::vector<std::uint32_t> dormant_round;
  std::vector<std::uint8_t> leader;
  std::uint32_t rounds = 0;
  std::uint64_t hash_collisions = 0;
  std::uint64_t pram_steps = 0;
  bool operator==(const PhaseByVertex&) const = default;
};

PhaseByVertex run_phase(std::uint64_t n, const std::vector<Arc>& arcs,
                        const std::vector<VertexId>& ongoing,
                        const std::vector<VertexId>& slot_order) {
  ExpandParams p;
  p.block_count = ongoing.size();  // a mix of owners and sharers
  p.table_capacity = 8;            // a mix of live and dormant
  p.seed = 4242;
  p.max_rounds = 40;
  p.keep_history = true;
  VoteParams vp;
  vp.dormant_leader_prob = 0.3;
  vp.seed = 17;
  RunStats stats;
  ExpandScratch scratch;
  ExpandEngine engine(n, slot_order, arcs, p, stats, scratch);
  engine.run();
  std::vector<std::uint8_t> leader;
  vote(engine, vp, stats, leader);
  PhaseByVertex out;
  out.rounds = engine.rounds();
  for (VertexId v : ongoing) {
    const std::uint32_t s = engine.slot_of(v);
    out.cells.push_back(engine.table(s).cells());
    out.history.emplace_back();
    for (std::uint32_t j = 0; j <= engine.rounds(); ++j) {
      const auto items = engine.history(j, s);
      out.history.back().emplace_back(items.begin(), items.end());
    }
    out.owns_block.push_back(engine.owns_block(s) ? 1 : 0);
    out.dormant_round.push_back(engine.dormant_round(s));
    out.leader.push_back(leader[s]);
  }
  out.hash_collisions = stats.hash_collisions;
  out.pram_steps = stats.pram_steps;
  return out;
}

TEST(Vote, PhaseResultsIgnoreSlotOrder) {
  // Below and above the 4,096-slot serial grain, past which the occupancy
  // count's bucket partition runs in parallel. The short paths give
  // vertices that stay live; the random part, ones that collide or share a
  // block.
  const std::vector<graph::EdgeList> inputs{
      graph::disjoint_union(
          {graph::make_gnm(2000, 3000, 5), graph::make_path_forest(300, 3)}),
      graph::disjoint_union(
          {graph::make_gnm(9000, 13500, 6), graph::make_path_forest(1000, 3)})};
  for (const graph::EdgeList& el : inputs) {
    auto arcs = arcs_from_input(el);
    drop_loops(arcs);
    dedup_arcs(arcs);
    ParentForest forest(el.n);
    std::vector<std::uint8_t> flags;
    std::vector<VertexId> ongoing;
    collect_ongoing(forest, arcs, flags, ongoing);
    ASSERT_TRUE(std::is_sorted(ongoing.begin(), ongoing.end()));
    auto shuffled = ongoing;
    std::mt19937_64 rng(el.n);
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    ASSERT_NE(shuffled, ongoing);
    const PhaseByVertex by_id = run_phase(el.n, arcs, ongoing, ongoing);
    const PhaseByVertex by_shuffle = run_phase(el.n, arcs, ongoing, shuffled);
    // The instance must exercise both outcomes of every per-slot choice.
    const auto count = [](const auto& values, auto value) {
      return std::count(values.begin(), values.end(), value);
    };
    EXPECT_GT(by_id.hash_collisions, 0u) << el.n;
    EXPECT_GT(count(by_id.owns_block, 0), 0) << el.n;
    EXPECT_GT(count(by_id.owns_block, 1), 0) << el.n;
    EXPECT_GT(count(by_id.dormant_round, ExpandEngine::kNeverDormant), 0)
        << el.n;
    EXPECT_GT(count(by_id.leader, 0), 0) << el.n;
    EXPECT_GT(count(by_id.leader, 1), 0) << el.n;
    EXPECT_TRUE(by_id == by_shuffle) << "n=" << el.n;
  }
}

}  // namespace
}  // namespace logcc::core
