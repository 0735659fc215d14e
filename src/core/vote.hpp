// VOTE (§B.4): leader selection after an EXPAND.
//
// A vertex that stayed live holds its entire component in H(u) (Lemma B.7),
// so the component's minimum id becomes the unique leader deterministically.
// A dormant vertex self-elects with probability b^{-2/3} — few leaders, but
// (by Lemma B.13) a dormant vertex has |H(u)| >= b w.h.p., so a leader lands
// in its table with constant probability, and the ongoing count falls by a
// b^{Ω(1)} factor per phase.
//
// Implemented as one fused parallel map: each slot scans its own table or
// draws a counter-based coin (mix64(seed, stream, v)), so the leader vector
// is bit-identical for every thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "core/expand.hpp"
#include "core/metrics.hpp"

namespace logcc::core {

struct VoteParams {
  /// Leader probability for dormant vertices (= b^{-2/3}).
  double dormant_leader_prob = 0.5;
  std::uint64_t seed = 1;
};

/// Per-slot leader flags (1 = leader): `leader` is resized to the slot
/// count and fully overwritten. Phase loops hoist it so steady-state phases
/// reuse its capacity instead of allocating (see core/round_arena.hpp).
void vote(const ExpandEngine& expand, const VoteParams& params,
          RunStats& stats, std::vector<std::uint8_t>& leader);

}  // namespace logcc::core
