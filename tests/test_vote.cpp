#include "core/vote.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

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
    engine = std::make_unique<ExpandEngine>(el.n, ongoing, arcs, p, stats);
    engine->run();
  }
  std::vector<Arc> arcs;
  std::vector<VertexId> ongoing;
  RunStats stats;
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
  auto leader = vote(*h.engine, vp, stats);
  // All vertices are live here; leaders must be vertex 0 (first path) and
  // vertex 9 (min of the cycle's id range), nothing else.
  for (std::uint32_t s = 0; s < h.engine->num_slots(); ++s) {
    VertexId v = h.engine->vertex_of(s);
    EXPECT_EQ(leader[s] == 1, v == 0 || v == 9) << "vertex " << v;
  }
}

TEST(Vote, DormantLeaderRateMatchesProbability) {
  // Make everyone fully dormant (no blocks): election is a pure Bernoulli.
  auto el = graph::make_path(4000);
  ExpandParams p = generous(el.n);
  p.block_count = 1;
  VoteHarness h(el, p);
  VoteParams vp;
  vp.dormant_leader_prob = 0.25;
  vp.seed = 99;
  RunStats stats;
  auto leader = vote(*h.engine, vp, stats);
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
  auto leader = vote(*h.engine, vp, stats);
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
  EXPECT_EQ(vote(*h.engine, vp, s1), vote(*h.engine, vp, s2));
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
  auto one = vote(*h.engine, vp, s1);
  for (int threads : {2, 8}) {
    util::set_parallelism(threads);
    RunStats sn;
    EXPECT_EQ(one, vote(*h.engine, vp, sn)) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace logcc::core
