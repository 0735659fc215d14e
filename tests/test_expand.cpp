#include "core/expand.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "core/labels.hpp"
#include "graph/generators.hpp"
#include "graph/graph_algos.hpp"
#include "test_support.hpp"
#include "util/parallel.hpp"

namespace logcc::core {
namespace {

/// Expands a whole input graph with generous parameters (everything ongoing).
struct Harness {
  explicit Harness(const graph::EdgeList& el, ExpandParams p, RunStats* stats)
      : arcs(arcs_from_input(el)), params(p) {
    drop_loops(arcs);
    for (std::uint64_t v = 0; v < el.n; ++v)
      ongoing.push_back(static_cast<VertexId>(v));
    engine = std::make_unique<ExpandEngine>(el.n, ongoing, arcs, params,
                                            stats ? *stats : local_stats);
    engine->run();
  }
  std::vector<Arc> arcs;
  std::vector<VertexId> ongoing;
  ExpandParams params;
  RunStats local_stats;
  std::unique_ptr<ExpandEngine> engine;
};

ExpandParams generous(std::uint64_t n) {
  ExpandParams p;
  p.block_count = 64 * n + 7;   // everyone owns a block w.h.p.
  p.table_capacity = static_cast<std::uint32_t>(16 * n + 3);  // no collisions
  p.seed = 12345;
  p.max_rounds = 32;
  return p;
}

TEST(Expand, LiveTableEqualsComponentBall) {
  // With no collisions and all blocks owned, every vertex stays live and
  // H(u) converges to u's entire component (Lemma B.7 at saturation).
  auto el = graph::make_path(17);
  Harness h(el, generous(el.n), nullptr);
  for (std::uint32_t s = 0; s < h.engine->num_slots(); ++s) {
    EXPECT_TRUE(h.engine->live_after(s));
    EXPECT_EQ(h.engine->table(s).count(), el.n) << "slot " << s;
  }
}

TEST(Expand, RadiusDoublesPerRound) {
  // On a path of length 2^k, reaching the whole component takes ~k rounds.
  auto el = graph::make_path(64);
  Harness h(el, generous(el.n), nullptr);
  EXPECT_LE(h.engine->rounds(), 10u);
  EXPECT_GE(h.engine->rounds(), 5u);  // needs ≥ log2(63) - 1 doublings
}

TEST(Expand, HistoryIsBallOfRadiusTwoToJ) {
  auto el = graph::make_path(33);
  ExpandParams p = generous(el.n);
  p.keep_history = true;
  Harness h(el, p, nullptr);
  graph::Graph g = graph::Graph::from_edges(el);
  // Check H_j(u) = B(u, 2^j) for a middle vertex while live (Lemma B.7).
  VertexId u = 16;
  std::uint32_t slot = h.engine->slot_of(u);
  for (std::uint32_t j = 0; j <= std::min(3u, h.engine->rounds()); ++j) {
    std::set<VertexId> expect;
    std::uint64_t radius = 1ULL << j;
    for (VertexId w = 0; w < el.n; ++w) {
      std::uint64_t dist = w > u ? w - u : u - w;
      if (dist <= radius) expect.insert(w);
    }
    auto items = h.engine->history(j, slot);
    std::set<VertexId> got(items.begin(), items.end());
    EXPECT_EQ(got, expect) << "round " << j;
  }
}

TEST(Expand, MultiComponentIsolation) {
  auto el = graph::disjoint_union({graph::make_path(8), graph::make_path(8)});
  Harness h(el, generous(el.n), nullptr);
  // Tables never leak across components.
  for (std::uint32_t s = 0; s < h.engine->num_slots(); ++s) {
    VertexId u = h.engine->vertex_of(s);
    h.engine->table(s).for_each([&](VertexId w) {
      EXPECT_EQ(w < 8, u < 8) << "component leak";
    });
  }
}

TEST(Expand, FullyDormantWithoutBlock) {
  auto el = graph::make_path(16);
  ExpandParams p = generous(el.n);
  p.block_count = 1;  // everyone hashes to the same block: nobody owns it
  Harness h(el, p, nullptr);
  for (std::uint32_t s = 0; s < h.engine->num_slots(); ++s) {
    EXPECT_TRUE(h.engine->fully_dormant(s));
    EXPECT_EQ(h.engine->dormant_round(s), 0u);
    EXPECT_EQ(h.engine->table(s).count(), 0u);
  }
}

TEST(Expand, TinyTablesCauseDormancyNotCrash) {
  auto el = graph::make_complete(16);  // degree 15 vs capacity 2
  ExpandParams p = generous(el.n);
  p.table_capacity = 2;
  RunStats stats;
  Harness h(el, p, &stats);
  std::uint32_t dormant = 0;
  for (std::uint32_t s = 0; s < h.engine->num_slots(); ++s)
    dormant += !h.engine->live_after(s);
  EXPECT_GT(dormant, 0u);
  EXPECT_GT(stats.hash_collisions, 0u);
}

TEST(Expand, DormantRoundMonotonicity) {
  // A vertex marked dormant in round j must have owned a block (else round
  // 0) and its dormant_round is fixed afterwards.
  auto el = graph::make_gnm(64, 160, 5);
  ExpandParams p = generous(el.n);
  p.table_capacity = 4;  // force some dormancy
  Harness h(el, p, nullptr);
  for (std::uint32_t s = 0; s < h.engine->num_slots(); ++s) {
    std::uint32_t dr = h.engine->dormant_round(s);
    if (dr == ExpandEngine::kNeverDormant) continue;
    EXPECT_LE(dr, h.engine->rounds());
    if (!h.engine->owns_block(s)) {
      EXPECT_EQ(dr, 0u);
    }
    // live_in_round consistency.
    if (h.engine->owns_block(s) && dr > 0) {
      EXPECT_TRUE(h.engine->live_in_round(s, dr - 1));
    }
    EXPECT_FALSE(h.engine->live_in_round(s, dr));
  }
}

TEST(Expand, SlotMappingBijective) {
  auto el = graph::make_cycle(20);
  Harness h(el, generous(el.n), nullptr);
  std::set<std::uint32_t> slots;
  for (VertexId v = 0; v < el.n; ++v) {
    std::uint32_t s = h.engine->slot_of(v);
    ASSERT_NE(s, ExpandEngine::kNoSlot);
    EXPECT_EQ(h.engine->vertex_of(s), v);
    EXPECT_TRUE(slots.insert(s).second);
  }
}

TEST(Expand, StatsAccumulateRounds) {
  auto el = graph::make_path(32);
  RunStats stats;
  Harness h(el, generous(el.n), &stats);
  EXPECT_EQ(stats.expand_rounds, h.engine->rounds());
  EXPECT_GT(stats.pram_steps, 0u);
}

TEST(ExpandDeath, HistoryRequiresFlag) {
  auto el = graph::make_path(4);
  Harness h(el, generous(el.n), nullptr);  // keep_history = false
  EXPECT_DEATH((void)h.engine->history(0, 0), "history");
}

TEST(Expand, HoistedScratchReusableAcrossEngines) {
  // Phase loops reuse one ExpandScratch across engines; the slot map must
  // come back all-kNoSlot after each engine dies, so a second engine over a
  // different ongoing set sees clean state.
  auto el = graph::make_gnm(256, 768, 3);
  ExpandParams p = generous(el.n);
  ExpandScratch scratch;
  RunStats stats;
  auto arcs = arcs_from_input(el);
  drop_loops(arcs);
  std::vector<VertexId> evens, odds;
  for (VertexId v = 0; v < el.n; v += 2) evens.push_back(v);
  for (VertexId v = 1; v < el.n; v += 2) odds.push_back(v);
  {
    ExpandEngine e1(el.n, evens, arcs, p, stats, &scratch);
    e1.run();
    for (VertexId v : evens) EXPECT_EQ(e1.slot_of(v), v / 2);
  }
  ExpandEngine e2(el.n, odds, arcs, p, stats, &scratch);
  e2.run();
  for (VertexId v : odds) EXPECT_EQ(e2.slot_of(v), v / 2);
  for (VertexId v : evens) EXPECT_EQ(e2.slot_of(v), ExpandEngine::kNoSlot);
}

// ---- Determinism contract: tables, dormancy and stats are bit-identical
// for every thread count (mirrors tests/test_scan.cpp).

using logcc::testing::ThreadInvariance;

struct ExpandOutcome {
  std::vector<std::vector<VertexId>> cells;
  std::vector<std::uint32_t> dormant;
  std::vector<std::uint8_t> owns;
  std::uint32_t rounds = 0;
  std::uint64_t collisions = 0;
  friend bool operator==(const ExpandOutcome&, const ExpandOutcome&) = default;
};

ExpandOutcome run_expand(const graph::EdgeList& el, const ExpandParams& p,
                         int threads) {
  util::set_parallelism(threads);
  RunStats stats;
  Harness h(el, p, &stats);
  ExpandOutcome out;
  const std::uint32_t num = h.engine->num_slots();
  out.cells.resize(num);
  out.dormant.resize(num);
  out.owns.resize(num);
  for (std::uint32_t s = 0; s < num; ++s) {
    out.cells[s] = h.engine->table(s).cells();
    out.dormant[s] = h.engine->dormant_round(s);
    out.owns[s] = h.engine->owns_block(s) ? 1 : 0;
  }
  out.rounds = h.engine->rounds();
  out.collisions = stats.hash_collisions;
  return out;
}

TEST_F(ThreadInvariance, TablesAndDormancyIdentical) {
  // Large enough that every parallel path engages (occupancy partition,
  // segmented table fill, parallel doubling); tight tables force a live /
  // dormant mix so both vote branches downstream see invariant input.
  auto el = graph::make_gnm(20000, 60000, 31);
  ExpandParams p;
  p.block_count = 4 * el.n + 7;
  p.table_capacity = 8;
  p.seed = 99;
  p.max_rounds = 40;
  ExpandOutcome one = run_expand(el, p, 1);
  for (int threads : {2, 8}) {
    ExpandOutcome many = run_expand(el, p, threads);
    EXPECT_EQ(one, many) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace logcc::core
