#include "core/spanning_forest.hpp"

#include <algorithm>
#include <span>

#include "core/expand.hpp"
#include "core/round_arena.hpp"
#include "core/vanilla.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/scan.hpp"

namespace logcc::core {

namespace {

constexpr std::uint64_t kInfDist = static_cast<std::uint64_t>(-1);

/// One TREE-LINK (§C.3) given the finished EXPAND and leader flags.
/// Writes parent links into `forest` and marks forest arcs in `in_forest`.
/// Every step is a parallel map over slots or arcs: slot-local Q/α/β state
/// is disjoint, the leader-neighbour marks are idempotent stores, and the
/// link choice resolves by fetch-min on the (arc, side) key — so the forest
/// and the marked arc set are thread-count invariant.
void tree_link(const ExpandEngine& expand,
               const std::vector<std::uint8_t>& leader,
               const std::vector<Arc>& arcs, ParentForest& forest,
               std::vector<std::uint8_t>& in_forest, RunStats& stats) {
  const std::uint32_t num = expand.num_slots();
  const std::uint32_t cap = expand.table_capacity();
  const auto& hv = expand.hv();

  // Step (1): initialise α and Q. Q(u) holds at most cap vertices, the
  // items of its last accepted Q′ table: q[s·cap, s·cap + q_len[s]).
  std::vector<std::int64_t> alpha(num);
  std::vector<VertexId> q(std::size_t{num} * cap);
  std::vector<std::uint32_t> q_len(num);
  auto q_of = [&](std::size_t s) {
    return std::span<const VertexId>(q.data() + s * cap, q_len[s]);
  };
  util::parallel_for(0, num, [&](std::size_t s) {
    if (leader[s] || expand.fully_dormant(static_cast<std::uint32_t>(s))) {
      alpha[s] = -1;
      return;
    }
    alpha[s] = 0;
    q[s * cap] = expand.vertex_of(static_cast<std::uint32_t>(s));
    q_len[s] = 1;
  });

  // Step (2): grow Q by halving radii, j = T .. 0. Slot u builds Q′(u) in
  // table u of one slab, reset per radius; slots advance independently
  // (each reads shared history, writes only its own table, Q and α).
  // Collisions tally per slot and flush after each radius.
  TableSlab qp;
  std::vector<std::uint64_t> coll(num);
  for (std::int64_t j = static_cast<std::int64_t>(expand.rounds()); j >= 0;
       --j) {
    ++stats.pram_steps;
    qp.reset_uniform(num, cap);
    const auto round = static_cast<std::uint32_t>(j);
    util::parallel_for(0, num, [&](std::size_t s) {
      coll[s] = 0;
      if (alpha[s] < 0) return;
      // Every member of Q(u) must be live in round j.
      for (VertexId v : q_of(s)) {
        std::uint32_t sv = expand.slot_of(v);
        if (sv == ExpandEngine::kNoSlot || !expand.live_in_round(sv, round))
          return;
      }
      // Q'(u) = hash of ∪_{v∈Q(u)} H_j(v); reject on collision or leader.
      const auto t = static_cast<std::uint32_t>(s);
      bool has_leader = false;
      for (VertexId v : q_of(s)) {
        for (VertexId w : expand.history(round, expand.slot_of(v))) {
          std::uint32_t sw = expand.slot_of(w);
          if (sw != ExpandEngine::kNoSlot && leader[sw]) {
            has_leader = true;
            break;
          }
          if (qp.insert_at(t, static_cast<std::uint32_t>(hv(w, cap)), w) ==
              TableSlab::Insert::kCollision) {
            ++coll[s];
            break;
          }
        }
        if (has_leader || qp.collided(t)) break;
      }
      if (has_leader || qp.collided(t)) return;
      // Accept: Q(u) := Q'(u), in cell order.
      VertexId* out = q.data() + s * cap;
      qp.for_each(t, [&](VertexId w) { *out++ = w; });
      q_len[s] = qp.count(t);
      alpha[s] += std::int64_t{1} << j;
    });
    stats.hash_collisions += util::parallel_reduce(
        std::size_t{0}, static_cast<std::size_t>(num), std::uint64_t{0},
        [&](std::size_t s) { return coll[s]; },
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
  }

  // Step (3): leader-neighbour marks over current graph arcs (idempotent
  // stores: every writer stores 1).
  std::vector<std::uint8_t> leader_neighbor(num, 0);
  util::parallel_for(0, arcs.size(), [&](std::size_t i) {
    const Arc& a = arcs[i];
    if (a.u == a.v) return;
    std::uint32_t su = expand.slot_of(a.u);
    std::uint32_t sv = expand.slot_of(a.v);
    if (su == ExpandEngine::kNoSlot || sv == ExpandEngine::kNoSlot) return;
    if (leader[su]) util::relaxed_store(leader_neighbor[sv], std::uint8_t{1});
    if (leader[sv]) util::relaxed_store(leader_neighbor[su], std::uint8_t{1});
  });

  // Step (4): β = exact distance to the nearest leader when within α + 1.
  std::vector<std::uint64_t> beta(num);
  util::parallel_for(0, num, [&](std::size_t s) {
    beta[s] = kInfDist;
    if (leader[s]) {
      beta[s] = 0;
      return;
    }
    if (alpha[s] < 0) return;
    for (VertexId w : q_of(s)) {
      std::uint32_t sw = expand.slot_of(w);
      if (sw != ExpandEngine::kNoSlot && leader_neighbor[sw]) {
        beta[s] = static_cast<std::uint64_t>(alpha[s]) + 1;
        break;
      }
    }
  });
  stats.pram_steps += 2;

  // Steps (5)+(6): each u with β > 0 links to a graph neighbour one layer
  // closer to the leader; the original arc joins the forest. The winning
  // arc resolves by fetch-min on the packed (arc index, side) key, so the
  // same link realises on every thread count.
  constexpr std::uint64_t kNone = static_cast<std::uint64_t>(-1);
  std::vector<std::uint64_t> chosen(num);
  util::parallel_for(0, num, [&](std::size_t s) { chosen[s] = kNone; });
  util::parallel_for(0, arcs.size(), [&](std::size_t i) {
    const Arc& a = arcs[i];
    if (a.u == a.v) return;
    std::uint32_t su = expand.slot_of(a.u);
    std::uint32_t sv = expand.slot_of(a.v);
    if (su == ExpandEngine::kNoSlot || sv == ExpandEngine::kNoSlot) return;
    if (beta[su] != kInfDist && beta[sv] != kInfDist) {
      const std::uint64_t key = static_cast<std::uint64_t>(i) << 1;
      if (beta[su] == beta[sv] + 1) util::atomic_min(chosen[su], key);
      if (beta[sv] == beta[su] + 1) util::atomic_min(chosen[sv], key | 1);
    }
  });
  util::parallel_for(0, num, [&](std::size_t s) {
    if (chosen[s] == kNone) return;
    const Arc& a = arcs[chosen[s] >> 1];
    const VertexId target = (chosen[s] & 1) ? a.u : a.v;
    VertexId v = expand.vertex_of(static_cast<std::uint32_t>(s));
    LOGCC_DCHECK(forest.is_root(v));
    forest.set_parent(v, target);
    // Two endpoints may pick the same arc: idempotent store.
    util::relaxed_store(in_forest[a.orig], std::uint8_t{1});
  });
  stats.pram_steps += 2;
}

}  // namespace

SfResult theorem2_sf(const graph::ArcsInput& in,
                     const SpanningForestParams& params) {
  SfResult out;
  RoundArena round_arena;
  RoundArena::Scope arena_scope(round_arena);
  const std::uint64_t n = in.num_vertices();
  ParentForest forest(n);
  std::vector<Arc> arcs = arcs_from_input(in);
  drop_loops(arcs);
  dedup_arcs(arcs);
  const std::uint64_t m0 = std::max<std::uint64_t>(arcs.size(), 1);
  std::vector<std::uint8_t> in_forest(in.num_edges(), 0);

  // FOREST-PREPARE (§C.1).
  const PrepareRule rule{params.seed, 0xF0AE57, params.prepare_target_density,
                         params.prepare_max_phases};
  prepare(forest, arcs, m0, rule, out.stats, &in_forest);

  ExpandSchedule schedule;
  schedule.expand_salt = 0x5F00;
  schedule.vote_salt = 0x5F0E;
  schedule.keep_history = true;  // TREE-LINK consumes H_j
  schedule.link = [&](const ExpandEngine& expand,
                      const std::vector<std::uint8_t>& leader) {
    tree_link(expand, leader, arcs, forest, in_forest, out.stats);
    // TREE-SHORTCUT: BFS trees have height ≤ d; flatten fully.
    out.stats.pram_steps += forest.flatten();
  };
  schedule.finish = [&] {
    deterministic_contract_sf(forest, arcs, in_forest, out.stats);
  };
  expand_loop(forest, arcs, m0, params, schedule, out.stats);

  for (std::uint64_t i = 0; i < in_forest.size(); ++i)
    if (in_forest[i]) out.forest_edges.push_back(i);
  return out;
}

}  // namespace logcc::core
