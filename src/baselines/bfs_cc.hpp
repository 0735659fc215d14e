// Sequential BFS connected components on an EdgeList — the linear-time
// sequential reference (`graph search [Tar72]` in the paper's introduction)
// and the oracle benches compare wall-clock against.
#pragma once

#include "core/metrics.hpp"
#include "graph/arcs_input.hpp"

namespace logcc::baselines {

/// Runs BFS directly over CSR-backed inputs (zero-copy); edge-backed inputs
/// (an EdgeList converts implicitly) build the CSR adjacency first.
core::CcResult bfs_cc(const graph::ArcsInput& in);

}  // namespace logcc::baselines
