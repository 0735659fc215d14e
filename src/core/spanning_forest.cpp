#include "core/spanning_forest.hpp"

#include <algorithm>

#include "core/expand.hpp"
#include "core/round_arena.hpp"
#include "core/vanilla.hpp"
#include "core/vote.hpp"
#include "util/arena.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"
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

  // Step (1): initialise α and Q.
  std::vector<std::int64_t> alpha(num);
  std::vector<std::vector<VertexId>> q(num);
  util::parallel_for(0, num, [&](std::size_t s) {
    if (leader[s] || expand.fully_dormant(static_cast<std::uint32_t>(s))) {
      alpha[s] = -1;
      return;
    }
    alpha[s] = 0;
    q[s] = {expand.vertex_of(static_cast<std::uint32_t>(s))};
  });

  // Step (2): grow Q by halving radii, j = T .. 0. Slots advance
  // independently (each reads shared history, writes only its own Q/α);
  // collisions tally per slot and flush after each radius.
  std::vector<std::uint64_t> coll(num);
  for (std::int64_t j = static_cast<std::int64_t>(expand.rounds()); j >= 0;
       --j) {
    ++stats.pram_steps;
    util::parallel_for(0, num, [&](std::size_t s) {
      coll[s] = 0;
      if (alpha[s] < 0) return;
      // Every member of Q(u) must be live in round j.
      bool all_live = true;
      for (VertexId v : q[s]) {
        std::uint32_t sv = expand.slot_of(v);
        if (sv == ExpandEngine::kNoSlot ||
            !expand.live_in_round(sv, static_cast<std::uint32_t>(j))) {
          all_live = false;
          break;
        }
      }
      if (!all_live) return;
      // Q'(u) = hash of ∪_{v∈Q(u)} H_j(v); reject on collision or leader.
      VertexTable qp(cap);
      bool has_leader = false;
      for (VertexId v : q[s]) {
        std::uint32_t sv = expand.slot_of(v);
        for (VertexId w : expand.history(static_cast<std::uint32_t>(j), sv)) {
          std::uint32_t sw = expand.slot_of(w);
          if (sw != ExpandEngine::kNoSlot && leader[sw]) {
            has_leader = true;
            break;
          }
          if (qp.insert_at(static_cast<std::uint32_t>(hv(w, cap)), w) ==
              VertexTable::Insert::kCollision) {
            ++coll[s];
            break;
          }
        }
        if (has_leader || qp.collided()) break;
      }
      if (!has_leader && !qp.collided()) {
        q[s] = qp.items();
        alpha[s] += std::int64_t{1} << j;
      }
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
    for (VertexId w : q[s]) {
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

  const std::uint64_t max_phases = params.phase_budget(n, m0);
  std::vector<std::uint64_t> seen_scratch;  // reused by every phase
  ExpandScratch expand_scratch;             // ditto (slot map + fill buffers)
  std::uint64_t phase = 0;
  std::vector<VertexId> ongoing;
  std::vector<std::uint8_t> leader;
  while (true) {
    util::scratch_arena_round_reset();
    dedup_arcs(arcs);
    drop_loops(arcs);
    if (!has_nonloop(arcs)) break;
    if (phase >= max_phases) {
      out.stats.finisher_used = true;
      deterministic_contract_sf(forest, arcs, in_forest, out.stats);
      break;
    }
    ++phase;
    ++out.stats.phases;

    collect_ongoing(forest, arcs, seen_scratch, ongoing);
    const double n_prime = static_cast<double>(ongoing.size());
    const PhaseSizing size = params.size_phase(n, m0, n_prime, ongoing.size());
    ExpandParams ep = size.expand;
    ep.seed = util::mix64(params.seed, 0x5F00 + phase);
    ep.keep_history = true;  // TREE-LINK consumes H_j

    ExpandEngine expand(n, ongoing, arcs, ep, out.stats, &expand_scratch);
    expand.run();

    VoteParams vp = size.vote;
    vp.seed = util::mix64(params.seed, 0x5F0E + phase);
    vote(expand, vp, out.stats, leader);

    out.stats.peak_space_words = std::max<std::uint64_t>(
        out.stats.peak_space_words,
        arcs.size() * 3 + static_cast<std::uint64_t>(ongoing.size()) *
                              ep.table_capacity * (expand.rounds() + 2));
    out.stats.total_block_words +=
        static_cast<std::uint64_t>(ongoing.size()) * ep.table_capacity;

    tree_link(expand, leader, arcs, forest, in_forest, out.stats);

    // TREE-SHORTCUT: BFS trees have height ≤ d; flatten fully.
    out.stats.pram_steps += forest.flatten();
    alter(arcs, forest);
    drop_loops(arcs);
  }

  for (std::uint64_t i = 0; i < in_forest.size(); ++i)
    if (in_forest[i]) out.forest_edges.push_back(i);
  return out;
}

}  // namespace logcc::core
