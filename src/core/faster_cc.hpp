// Theorem 3 (§3/§D): Faster Connected Components in
// O(log d + log log_{m/n} n) time.
//
//   COMPACT; repeat { EXPAND-MAXLINK } until the graph has diameter ≤ 1 and
//   all trees are flat; run the Theorem-1 algorithm on the remaining graph.
//
// The repeat loop halves the diameter every round (each root connects to
// everything within distance 2, Lemma 3.20/D.24) while the level/budget
// machinery keeps total space O(m); the additive log log term comes from
// COMPACT's PREPARE (the one shared with Theorems 1 and 2, in
// core/vanilla.hpp) and the postprocess, Theorem 1's phase loop with its
// default Theorem1Params.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>

#include "core/budget.hpp"
#include "core/cc_theorem1.hpp"
#include "core/metrics.hpp"
#include "graph/graph.hpp"

namespace logcc::core {

struct FasterCcParams {
  std::uint64_t seed = 1;

  /// When set, used verbatim instead of ParamPolicy::practical of the
  /// compact graph — the ablation benches put the paper's growth, raise
  /// exponents or √b tables back here, field by field.
  std::optional<ParamPolicy> policy_override;

  /// COMPACT's PREPARE rule: density target (the paper's log^c n) and
  /// phase budget (PrepareRule::target_density and max_phases).
  double prepare_target_density = 64.0;
  std::uint64_t prepare_max_phases = PrepareRule::kAutoPhases;

  /// 0 = automatic: C·(log2 n + log log n) + K rounds before the
  /// deterministic finisher takes over.
  std::uint64_t max_rounds = 0;
};

/// CSR-backed inputs ingest without an EdgeList; an EdgeList converts
/// implicitly.
CcResult faster_cc(const graph::ArcsInput& in,
                   const FasterCcParams& params = {});

/// faster-cc on the wide (64-bit) path, by a narrowing bridge. COMPACT and
/// EXPAND-MAXLINK are narrow only, so an input whose vertex and edge counts
/// both fit `narrow_threshold` (capped at the 32-bit limit) runs the narrow
/// faster_cc directly, with labels bit-identical to a narrow run. A wider
/// input first contracts with the wide Vanilla loop, on COMPACT's coins but
/// with its own stop rule (its arc list fits half the threshold), renames
/// the surviving roots into a dense 32-bit space, finishes there with the
/// narrow faster_cc, and maps the labels back through the wide forest.
/// Tests lower `narrow_threshold` to force the contracting branch at small
/// scale.
CcResult64 faster_cc(
    const graph::ArcsInput64& in, const FasterCcParams& params = {},
    std::uint64_t narrow_threshold = std::numeric_limits<std::uint32_t>::max());

}  // namespace logcc::core
