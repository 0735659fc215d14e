// Theorem 1 (§B): Connected Components in O(log d · log log_{m/n} n) time.
//
//   PREPARE; repeat { EXPAND; VOTE; LINK; SHORTCUT; ALTER } until no edge
//   exists other than loops.
//
// PREPARE (the shared one of core/vanilla.hpp) densifies with Vanilla
// phases when m/n is small; each phase then expands neighbour sets to balls
// of doubling radius (O(log d) inner rounds), elects leaders, and
// contracts, multiplying the density m/n' by a b^{Ω(1)} factor per phase —
// hence O(log log) phases.
//
// One phase loop, expand_loop, runs the EXPAND phases of Theorem 1 and of
// Theorem 2 (core/spanning_forest.hpp): it sizes every phase from
// Theorem1Params, and its caller picks the coin salts, the link step and
// the finisher. Its EXPAND (core/expand.hpp) fills and doubles tables with
// the table slab kernels seed_tables and double_table.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/budget.hpp"
#include "core/building_blocks.hpp"
#include "core/expand.hpp"
#include "core/metrics.hpp"
#include "core/vanilla.hpp"
#include "graph/graph.hpp"

namespace logcc::core {

struct Theorem1Params {
  std::uint64_t seed = 1;

  // Per-phase sizing from the density δ = m / n'. The paper's exponents:
  // block size δ^{2/3}, table |H(u)| = δ^{1/3}, progress parameter
  // b = δ^{1/18}, tables of at least 2 entries. The defaults stand in for
  // them with progress a run can show: at δ = 64 the paper's b ≈ 1.26 sits
  // on its floor of 2 and its tables hold 4 entries, so a phase barely
  // shrinks the graph; the defaults give b = 4 and 16-entry tables.
  double block_exp = 2.0 / 3.0;
  double table_exp = 2.0 / 3.0;
  double b_exp = 1.0 / 3.0;
  std::uint32_t min_table_capacity = 8;

  /// PREPARE runs Vanilla phases until m/n' reaches this density or the
  /// graph is solved or the phase budget runs out
  /// (PrepareRule::target_density and max_phases). The paper's target is
  /// log^{100} n, which exceeds every feasible m/n, with a budget of
  /// 100 · log_{8/7} log n + 8 phases that outlasts Vanilla's O(log n): at
  /// feasible n PREPARE would solve the whole graph and no EXPAND phase
  /// would run. 64 stands in for it.
  double prepare_target_density = 64.0;
  std::uint64_t prepare_max_phases = PrepareRule::kAutoPhases;

  /// 0 = automatic: 8 · log log_{m0/n} n + 24 phases before the
  /// deterministic finisher takes over (it essentially never does; bench T4
  /// measures it).
  std::uint64_t max_phases = 0;

  /// true  — n' counted exactly (the COMBINING CRCW assumption B.6);
  /// false — the ñ update rule of §B.5 (pure ARBITRARY CRCW).
  bool exact_count = true;
};

/// What a caller of expand_loop picks. Phase p (from 1) seeds EXPAND with
/// mix64(seed, expand_salt + p) and VOTE with mix64(seed, vote_salt + p).
/// keep_history keeps every round's tables, and the phase's space counts
/// them. `link` runs after VOTE and leaves the trees flat (LINK + SHORTCUT,
/// or TREE-LINK + flatten); `finish` runs once the phase budget is spent.
struct ExpandSchedule {
  std::uint64_t expand_salt = 0;
  std::uint64_t vote_salt = 0;
  bool keep_history = false;
  std::function<void(const ExpandEngine&, const std::vector<std::uint8_t>&)>
      link;
  std::function<void()> finish;
};

/// The EXPAND phase loop, in place on (forest, arcs): while a non-loop arc
/// is left, EXPAND, VOTE, schedule.link and ALTER, each phase sized from n′,
/// the ongoing count or, without exact_count, the ñ of §B.5. After
/// max_phases phases it sets finisher_used and calls schedule.finish. Arcs
/// must connect roots of flat trees.
void expand_loop(ParentForest& forest, std::vector<Arc>& arcs,
                 std::uint64_t m0, const Theorem1Params& params,
                 const ExpandSchedule& schedule, RunStats& stats);

/// An EdgeList converts implicitly to the ArcsInput (CSR-backed inputs
/// ingest without one).
CcResult theorem1_cc(const graph::ArcsInput& in,
                     const Theorem1Params& params = {});

/// Phase loop only, operating in place on (forest, arcs); used by the
/// Theorem-3 driver as its postprocessing stage. Arcs must connect roots of
/// flat trees.
void theorem1_phases(ParentForest& forest, std::vector<Arc>& arcs,
                     std::uint64_t m0, const Theorem1Params& params,
                     RunStats& stats);

}  // namespace logcc::core
