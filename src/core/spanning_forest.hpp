// Theorem 2 (§C): Spanning Forest in O(log d · log log_{m/n} n) time.
//
//   FOREST-PREPARE; repeat { EXPAND; VOTE; TREE-LINK; TREE-SHORTCUT; ALTER }
//   until no edge exists other than loops.
//
// The connected-components phase cannot be reused verbatim because EXPAND
// adds edges that are not in the input graph. TREE-LINK (§C.3) instead
// computes, for every vertex u:
//   u.α — the largest radius such that B(u, α) contains no collision, no
//         leader, and no fully dormant vertex (via the retained per-round
//         tables H_j); and
//   u.β — the exact distance to the nearest leader when it is ≤ α + 1;
// and then links every u with β > 0 to a *graph* neighbour w with
// β(w) = β(u) − 1, marking the original input arc (Lemma C.6 guarantees w
// exists). The resulting trees are BFS trees of height ≤ d (Lemma C.8),
// flattened by TREE-SHORTCUT.
//
// FOREST-PREPARE is the shared PREPARE (core/vanilla.hpp) recording the
// input edge of every LINK. The phases run on Theorem 1's EXPAND phase loop
// (expand_loop, core/cc_theorem1.hpp) with their own coin salts, TREE-LINK
// + TREE-SHORTCUT as the link step and the forest-marking finisher, so they
// are sized as Theorem 1's are, exact_count's ñ rule included.
#pragma once

#include "core/cc_theorem1.hpp"
#include "core/metrics.hpp"
#include "graph/graph.hpp"

namespace logcc::core {

using SpanningForestParams = Theorem1Params;

/// CSR-backed inputs ingest without an EdgeList; an EdgeList converts
/// implicitly. forest_edges index the input's canonical edge order
/// (EdgeList order, or the smaller-endpoint CSR order of
/// graph::ArcsInput::for_each_edge).
SfResult theorem2_sf(const graph::ArcsInput& in,
                     const SpanningForestParams& params = {});

}  // namespace logcc::core
