// Theorem 1 (§B): Connected Components in O(log d · log log_{m/n} n) time.
//
//   PREPARE; repeat { EXPAND; VOTE; LINK; SHORTCUT; ALTER } until no edge
//   exists other than loops.
//
// PREPARE densifies (runs Vanilla phases) when m/n is small; each phase then
// expands neighbour sets to balls of doubling radius (O(log d) inner
// rounds), elects leaders, and contracts, multiplying the density m/n' by a
// b^{Ω(1)} factor per phase — hence O(log log) phases.
#pragma once

#include <cstdint>
#include <vector>

#include "core/budget.hpp"
#include "core/building_blocks.hpp"
#include "core/metrics.hpp"
#include "graph/graph.hpp"

namespace logcc::core {

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
  /// paper's log^c n) or the graph is solved or the phase budget runs out.
  double prepare_target_density = 64.0;
  /// kAutoPreparePhases resolves to Θ(log log n) phases — the paper's fixed
  /// PREPARE budget (c · log_{8/7} log n). A constant-density stopping rule
  /// alone would contract high-diameter graphs all the way down and erase
  /// the log d term the experiments measure.
  static constexpr std::uint64_t kAutoPreparePhases =
      static_cast<std::uint64_t>(-1);
  std::uint64_t prepare_max_phases = kAutoPreparePhases;

  /// 0 = automatic: C · log log_{m/n} n + K phases before the deterministic
  /// finisher takes over (it essentially never does; bench T4 measures it).
  std::uint64_t max_phases = 0;

  /// true  — n' counted exactly (the COMBINING CRCW assumption B.6);
  /// false — the ñ update rule of §B.5 (pure ARBITRARY CRCW).
  bool exact_count = true;

  /// Paper-faithful exponents; see DESIGN.md §5.2 for why this mode mostly
  /// degenerates to PREPARE at feasible n.
  static Theorem1Params paper(std::uint64_t n, std::uint64_t m);
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
