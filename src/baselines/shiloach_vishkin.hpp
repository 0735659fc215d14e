// Shiloach–Vishkin (1982) connected components — the classical O(log n)-time
// ARBITRARY CRCW PRAM algorithm the paper's introduction departs from.
//
// This is the fast "synchronous vector" rendering: each PRAM step is one
// pass over whole arrays that reads only the previous step's values, so the
// Θ(log n) round structure survives without simulating processors one by
// one. The step-faithful on-simulator version lives in pram/sv_on_pram.hpp.
#pragma once

#include "core/metrics.hpp"
#include "graph/arcs_input.hpp"

namespace logcc::baselines {

/// Original-style Shiloach–Vishkin: shortcut, hook-smaller, stagnant hook
/// (via Q stamps), shortcut; O(log n) rounds. Sweeps the edges straight off
/// the backing storage every round (zero-copy for CSR datasets); an
/// EdgeList converts implicitly. Every baseline returns core::CcResult with
/// only RunStats::rounds set.
core::CcResult shiloach_vishkin(const graph::ArcsInput& in);

}  // namespace logcc::baselines
