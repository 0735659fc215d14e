// Shiloach–Vishkin (1982) connected components — the classical O(log n)-time
// ARBITRARY CRCW PRAM algorithm the paper's introduction departs from.
//
// This is the fast "synchronous vector" rendering: each PRAM step is one
// pass over whole arrays that reads only the previous step's values, so the
// Θ(log n) round structure survives without simulating processors one by
// one. The step-faithful on-simulator version lives in pram/sv_on_pram.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/arcs_input.hpp"
#include "graph/graph.hpp"

namespace logcc::baselines {

template <typename V>
struct BasicBaselineResult {
  std::vector<V> labels;
  std::uint64_t rounds = 0;
};

using BaselineResult = BasicBaselineResult<graph::VertexId>;
using BaselineResult64 = BasicBaselineResult<graph::VertexId64>;

/// Original-style Shiloach–Vishkin: shortcut, hook-smaller, stagnant hook
/// (via Q stamps), shortcut; O(log n) rounds. Sweeps the edges straight off
/// the backing storage every round (zero-copy for CSR datasets); an
/// EdgeList converts implicitly.
BaselineResult shiloach_vishkin(const graph::ArcsInput& in);

}  // namespace logcc::baselines
