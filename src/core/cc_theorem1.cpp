#include "core/cc_theorem1.hpp"

#include <algorithm>
#include <cmath>

#include "core/round_arena.hpp"
#include "util/arena.hpp"
#include "util/bitutil.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"
#include "util/scan.hpp"

namespace logcc::core {

Theorem1Params Theorem1Params::paper(std::uint64_t n, std::uint64_t m) {
  (void)m;
  Theorem1Params p;
  p.block_exp = 2.0 / 3.0;
  p.table_exp = 1.0 / 3.0;
  p.b_exp = 1.0 / 18.0;
  p.min_table_capacity = 2;
  // log^c n with c = 100: at feasible n this exceeds any real m/n, so
  // PREPARE dominates — exactly what the theory predicts for small inputs.
  double log_n = std::log2(std::max<double>(n, 4));
  p.prepare_target_density = std::pow(log_n, 100.0);
  p.prepare_max_phases =
      static_cast<std::uint64_t>(100.0 * util::log_base(std::max(4.0, std::log2(std::max<double>(n, 4))), 8.0 / 7.0)) +
      8;
  return p;
}

std::uint64_t Theorem1Params::phase_budget(std::uint64_t n,
                                           std::uint64_t m0) const {
  if (max_phases != 0) return max_phases;
  return static_cast<std::uint64_t>(8.0 * util::loglog_density(n, m0)) + 24;
}

PhaseSizing Theorem1Params::size_phase(std::uint64_t n, std::uint64_t m0,
                                       double n_prime,
                                       std::uint64_t ongoing) const {
  PhaseSizing out;
  const double delta = std::max(2.0, static_cast<double>(m0) / n_prime);
  out.b = std::max(2.0, std::pow(delta, b_exp));
  out.expand.table_capacity = static_cast<std::uint32_t>(std::clamp<double>(
      std::pow(delta, table_exp), min_table_capacity, double(1u << 22)));
  const double block_size = std::max(4.0, std::pow(delta, block_exp));
  out.expand.block_count = std::max<std::uint64_t>(
      2 * ongoing + 1,
      static_cast<std::uint64_t>(static_cast<double>(m0) / block_size));
  out.expand.max_rounds = util::ceil_log2(std::max<std::uint64_t>(n, 2)) + 4;
  out.vote.dormant_leader_prob = std::pow(out.b, -2.0 / 3.0);
  return out;
}

void theorem1_phases(ParentForest& forest, std::vector<Arc>& arcs,
                     std::uint64_t m0, const Theorem1Params& params,
                     RunStats& stats) {
  const std::uint64_t n = forest.size();
  m0 = std::max<std::uint64_t>(m0, 1);
  const std::uint64_t max_phases = params.phase_budget(n, m0);

  // ñ update rule state (§B.5) for the pure-ARBITRARY variant.
  double n_tilde = static_cast<double>(std::max<std::uint64_t>(n, 1));

  std::vector<std::uint64_t> seen_scratch;  // reused by every phase
  ExpandScratch expand_scratch;             // ditto (slot map + fill buffers)
  // Hoisted per-phase buffers (ongoing set, leader flags, LINK choices):
  // steady-state phases reuse their capacity instead of allocating.
  std::vector<VertexId> ongoing;
  std::vector<std::uint8_t> leader;
  std::vector<VertexId> chosen;
  std::uint64_t phase = 0;
  while (true) {
    util::scratch_arena_round_reset();
    dedup_arcs(arcs);
    drop_loops(arcs);
    if (!has_nonloop(arcs)) return;
    if (phase >= max_phases) break;  // to finisher
    ++phase;
    ++stats.phases;

    collect_ongoing(forest, arcs, seen_scratch, ongoing);
    const double n_prime = params.exact_count
                               ? static_cast<double>(ongoing.size())
                               : std::max(1.0, n_tilde);
    const PhaseSizing size = params.size_phase(n, m0, n_prime, ongoing.size());
    ExpandParams ep = size.expand;
    ep.seed = util::mix64(params.seed, 0xE0 + phase);

    ExpandEngine expand(n, ongoing, arcs, ep, stats, &expand_scratch);
    expand.run();

    VoteParams vp = size.vote;
    vp.seed = util::mix64(params.seed, 0x40E + phase);
    vote(expand, vp, stats, leader);

    // Space in use this phase: arc processors + all tables.
    stats.peak_space_words =
        std::max(stats.peak_space_words,
                 arcs.size() * 3 + static_cast<std::uint64_t>(ongoing.size()) *
                                       ep.table_capacity);
    stats.total_block_words +=
        static_cast<std::uint64_t>(ongoing.size()) * ep.table_capacity;

    // LINK: non-leaders adopt a leader in their neighbour set (graph arcs
    // plus the expanded tables). The ARBITRARY write resolution becomes a
    // fetch-min on the leader id, so the adopted parent is the same for
    // every thread count.
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

    // SHORTCUT; ALTER.
    forest.shortcut();
    stats.pram_steps += 2;
    alter(arcs, forest);
    drop_loops(arcs);

    // ñ update rule (§B.5): ñ := ñ / b^{1/4}.
    n_tilde = std::max(1.0, n_tilde / std::pow(size.b, 0.25));
  }

  // Round budget exhausted (vanishingly rare; bench T4 quantifies): finish
  // deterministically.
  stats.finisher_used = true;
  deterministic_contract(forest, arcs, stats);
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
