// Theorem 1 (§B): Connected Components in O(log d · log log_{m/n} n) time.
//
//   PREPARE; repeat { EXPAND; VOTE; LINK; SHORTCUT; ALTER } until no edge
//   exists other than loops.
//
// PREPARE (the shared one of core/vanilla.hpp) densifies with Vanilla
// phases when m/n is small; each phase then expands neighbour sets to balls
// of doubling radius (O(log d) inner rounds), elects leaders, and
// contracts, multiplying the density m/n' by a b^{Ω(1)} factor per phase —
// hence O(log log) phases. Theorem 2 (core/spanning_forest.hpp) runs the
// same phase shape and sizes its phases with the same Theorem1Params
// helpers.
#pragma once

#include <cstdint>
#include <vector>

#include "core/budget.hpp"
#include "core/building_blocks.hpp"
#include "core/expand.hpp"
#include "core/metrics.hpp"
#include "core/vanilla.hpp"
#include "core/vote.hpp"
#include "graph/graph.hpp"

namespace logcc::core {

/// One phase's sizing, from the density δ = max(2, m0 / n′): EXPAND's table
/// capacity δ^table_exp, block count max(2k + 1, m0 / δ^block_exp) for k
/// ongoing roots and doubling-round cap; the progress parameter
/// b = δ^b_exp; VOTE's dormant-leader probability b^{-2/3}. The coin seeds
/// and keep_history are left to the caller.
struct PhaseSizing {
  ExpandParams expand;
  VoteParams vote;
  double b = 2.0;
};

struct Theorem1Params {
  std::uint64_t seed = 1;

  // Per-phase sizing from the density δ = m / n' (paper exponents in
  // comments): block size δ^block_exp (2/3), table |H(u)| = δ^table_exp
  // (1/3), progress parameter b = δ^b_exp (1/18). Practical defaults trade
  // the asymptotic constants for observable progress at laptop scale
  // (DESIGN.md §5.2).
  double block_exp = 2.0 / 3.0;
  double table_exp = 2.0 / 3.0;
  double b_exp = 1.0 / 3.0;
  std::uint32_t min_table_capacity = 8;

  /// PREPARE runs Vanilla phases until m/n' reaches this density (the
  /// paper's log^c n) or the graph is solved or the phase budget runs out
  /// (PrepareRule::target_density and max_phases).
  double prepare_target_density = 64.0;
  std::uint64_t prepare_max_phases = PrepareRule::kAutoPhases;

  /// 0 = automatic: C · log log_{m/n} n + K phases before the deterministic
  /// finisher takes over (it essentially never does; bench T4 measures it).
  std::uint64_t max_phases = 0;

  /// true  — n' counted exactly (the COMBINING CRCW assumption B.6);
  /// false — the ñ update rule of §B.5 (pure ARBITRARY CRCW).
  bool exact_count = true;

  /// Paper-faithful exponents; see DESIGN.md §5.2 for why this mode mostly
  /// degenerates to PREPARE at feasible n.
  static Theorem1Params paper(std::uint64_t n, std::uint64_t m);

  /// Phases before the deterministic finisher: max_phases, or
  /// 8 · log log_{m0/n} n + 24 when it is 0.
  std::uint64_t phase_budget(std::uint64_t n, std::uint64_t m0) const;

  /// Sizing of a phase with n′ = `n_prime` (the ongoing count, or ñ) and
  /// `ongoing` ongoing roots on an n-vertex, m0-arc graph.
  PhaseSizing size_phase(std::uint64_t n, std::uint64_t m0, double n_prime,
                         std::uint64_t ongoing) const;
};

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
