#include "core/cc_theorem1.hpp"

#include <algorithm>
#include <cmath>

#include "core/round_arena.hpp"
#include "core/vote.hpp"
#include "util/arena.hpp"
#include "util/bitutil.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"
#include "util/scan.hpp"

namespace logcc::core {

void expand_loop(ParentForest& forest, std::vector<Arc>& arcs,
                 std::uint64_t m0, const Theorem1Params& params,
                 const ExpandSchedule& schedule, RunStats& stats) {
  const std::uint64_t n = forest.size();
  m0 = std::max<std::uint64_t>(m0, 1);
  const std::uint64_t max_phases =
      params.max_phases != 0
          ? params.max_phases
          : static_cast<std::uint64_t>(8.0 * util::loglog_density(n, m0)) + 24;

  // ñ update rule state (§B.5) for the pure-ARBITRARY variant.
  double n_tilde = static_cast<double>(std::max<std::uint64_t>(n, 1));

  ExpandScratch expand_scratch;  // reused by every phase (slot map + fill)
  // Hoisted per-phase buffers (ongoing flags and set, leader flags):
  // steady-state phases reuse their capacity instead of allocating.
  std::vector<std::uint8_t> ongoing_flags;
  std::vector<VertexId> ongoing;
  std::vector<std::uint8_t> leader;
  std::uint64_t phase = 0;
  while (true) {
    util::scratch_arena_round_reset();
    dedup_arcs(arcs);
    drop_loops(arcs);
    if (arcs.empty()) return;
    if (phase >= max_phases) break;  // to finisher
    ++phase;
    ++stats.phases;

    collect_ongoing(forest, arcs, ongoing_flags, ongoing);
    const double n_prime = params.exact_count
                               ? static_cast<double>(ongoing.size())
                               : std::max(1.0, n_tilde);
    // Sizing from the density δ = max(2, m0 / n′): |H| = δ^table_exp, block
    // count max(2k + 1, m0 / δ^block_exp) for k ongoing roots, progress
    // parameter b = δ^b_exp, dormant-leader probability b^{-2/3}.
    const double delta = std::max(2.0, static_cast<double>(m0) / n_prime);
    const double b = std::max(2.0, std::pow(delta, params.b_exp));
    ExpandParams ep;
    ep.table_capacity = static_cast<std::uint32_t>(
        std::clamp<double>(std::pow(delta, params.table_exp),
                           params.min_table_capacity, double(1u << 22)));
    ep.block_count = std::max<std::uint64_t>(
        2 * ongoing.size() + 1,
        static_cast<std::uint64_t>(
            static_cast<double>(m0) /
            std::max(4.0, std::pow(delta, params.block_exp))));
    ep.max_rounds = util::ceil_log2(std::max<std::uint64_t>(n, 2)) + 4;
    ep.seed = util::mix64(params.seed, schedule.expand_salt + phase);
    ep.keep_history = schedule.keep_history;

    ExpandEngine expand(n, ongoing, arcs, ep, stats, expand_scratch);
    expand.run();

    VoteParams vp;
    vp.dormant_leader_prob = std::pow(b, -2.0 / 3.0);
    vp.seed = util::mix64(params.seed, schedule.vote_salt + phase);
    vote(expand, vp, stats, leader);

    // Space in use this phase: arc processors + all tables, every round's
    // when they are kept.
    const std::uint64_t tables_held =
        schedule.keep_history ? expand.rounds() + 2 : 1;
    stats.peak_space_words = std::max<std::uint64_t>(
        stats.peak_space_words,
        arcs.size() * 3 + static_cast<std::uint64_t>(ongoing.size()) *
                              ep.table_capacity * tables_held);
    stats.total_block_words +=
        static_cast<std::uint64_t>(ongoing.size()) * ep.table_capacity;

    schedule.link(expand, leader);
    alter(arcs, forest);
    drop_loops(arcs);

    // ñ update rule (§B.5): ñ := ñ / b^{1/4}.
    n_tilde = std::max(1.0, n_tilde / std::pow(b, 0.25));
  }

  // Round budget exhausted (vanishingly rare; bench T4 quantifies): finish
  // deterministically.
  stats.finisher_used = true;
  schedule.finish();
}

void theorem1_phases(ParentForest& forest, std::vector<Arc>& arcs,
                     std::uint64_t m0, const Theorem1Params& params,
                     RunStats& stats) {
  std::vector<VertexId> chosen;  // LINK's pick per slot, reused every phase
  ExpandSchedule schedule;
  schedule.expand_salt = 0xE0;
  schedule.vote_salt = 0x40E;
  // LINK: non-leaders adopt a leader in their neighbour set (graph arcs
  // plus the expanded tables). The ARBITRARY write resolution becomes a
  // fetch-min on the leader id, so the adopted parent is the same for
  // every thread count.
  schedule.link = [&](const ExpandEngine& expand,
                      const std::vector<std::uint8_t>& leader) {
    stats.pram_steps += 1;
    const std::uint32_t num = expand.num_slots();
    chosen.assign(num, graph::kInvalidVertex);
    util::parallel_for(0, arcs.size(), [&](std::size_t i) {
      const Arc& a = arcs[i];
      if (a.u == a.v) return;
      std::uint32_t su = expand.slot_of(a.u);
      std::uint32_t sv = expand.slot_of(a.v);
      if (su == ExpandEngine::kNoSlot || sv == ExpandEngine::kNoSlot) return;
      if (!leader[su] && leader[sv]) util::atomic_min(chosen[su], a.v);
      if (!leader[sv] && leader[su]) util::atomic_min(chosen[sv], a.u);
    });
    // Each non-leader scans its own table — disjoint writes, no atomics.
    util::parallel_for(0, num, [&](std::size_t s) {
      if (leader[s]) return;
      VertexId best = chosen[s];
      expand.table(static_cast<std::uint32_t>(s)).for_each([&](VertexId w) {
        std::uint32_t sw = expand.slot_of(w);
        if (sw != ExpandEngine::kNoSlot && leader[sw] && w < best) best = w;
      });
      chosen[s] = best;
    });
    util::parallel_for(0, num, [&](std::size_t s) {
      if (chosen[s] == graph::kInvalidVertex) return;
      VertexId v = expand.vertex_of(static_cast<std::uint32_t>(s));
      if (forest.is_root(v)) forest.set_parent(v, chosen[s]);
    });
    forest.shortcut();
    stats.pram_steps += 2;  // SHORTCUT and the loop's ALTER
  };
  schedule.finish = [&] { deterministic_contract(forest, arcs, stats); };
  expand_loop(forest, arcs, m0, params, schedule, stats);
}

CcResult theorem1_cc(const graph::ArcsInput& in, const Theorem1Params& params) {
  CcResult out;
  RoundArena round_arena;
  RoundArena::Scope arena_scope(round_arena);
  const std::uint64_t n = in.num_vertices();
  ParentForest forest(n);
  std::vector<Arc> arcs = arcs_from_input(in);
  drop_loops(arcs);
  dedup_arcs(arcs);
  const std::uint64_t m0 = std::max<std::uint64_t>(arcs.size(), 1);

  // PREPARE (§B.2).
  const PrepareRule rule{params.seed, 0xAA00, params.prepare_target_density,
                         params.prepare_max_phases};
  prepare(forest, arcs, m0, rule, out.stats);

  theorem1_phases(forest, arcs, m0, params, out.stats);

  forest.flatten();
  out.labels = forest.root_labels();
  return out;
}

}  // namespace logcc::core
