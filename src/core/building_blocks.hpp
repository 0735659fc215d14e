// The paper's four building blocks (§2.2), each implemented once:
//
//   * ALTER        — replace every edge {v,w} by {v.p, w.p} (here, with
//                    drop_loops and dedup_arcs, the arc-list upkeep after it);
//   * direct LINK / parent LINK — applied inside the algorithm drivers;
//   * SHORTCUT     — core::shortcut_step (labels.hpp), the one synchronous
//                    step: ParentForest runs it (and through its flatten
//                    the serving engine, the sketch tier's StreamStats and
//                    the MPC simulation), and so do SV, AS and the
//                    Liu–Tarjan lab on their own arrays;
//   * expansion    — the two table slab kernels (table_slab.hpp):
//                    seed_tables fills H(v) from v and its neighbours, and
//                    double_table runs one H(v) ∪= H(w), w ∈ H(v) step;
//                    EXPAND (expand.hpp) and EXPAND-MAXLINK
//                    (expand_maxlink.hpp) both run on them.
//
// Plus the phase's ongoing-root set (mark_ongoing / collect_ongoing), which
// PREPARE, COMPACT and the one EXPAND phase loop of Theorems 1 and 2
// (expand_loop, cc_theorem1.hpp) share.
//
// Arcs carry the index of the original input edge they were altered from
// (`orig`), which is what lets the spanning-forest algorithm mark tree edges
// of the *input* graph (the ê/e distinction of §C).
#pragma once

#include <cstdint>
#include <vector>

#include "core/labels.hpp"
#include "core/metrics.hpp"
#include "graph/arcs_input.hpp"
#include "graph/graph.hpp"

namespace logcc::core {

/// An arc of the working graph. `orig` is the arc's index in the canonical
/// input edge order, dense in the input's orig-index type (uint32 narrow,
/// uint64 wide). Arc is the narrow instantiation every algorithm runs on;
/// Arc64 is what the wide Vanilla and the faster-cc bridge run on.
template <typename V>
struct BasicArc {
  using OrigId = typename graph::BasicArcsInput<V>::OrigId;
  V u = 0;
  V v = 0;
  OrigId orig = 0;  // index into the canonical input edge order
  friend bool operator==(const BasicArc&, const BasicArc&) = default;
};

using Arc = BasicArc<VertexId>;
using Arc64 = BasicArc<VertexId64>;

/// Builds the initial arc list from the input: one arc per undirected edge
/// (algorithms enumerate both directions). Edge-backed inputs copy the span
/// in parallel; CSR-backed inputs scatter arcs straight out of the (mmap'd)
/// adjacency with a blocked parallel emit, no intermediate EdgeList. The
/// emitted (u, v, orig) sequence for a CSR is exactly the one its
/// edge_list_from_csr would give — the canonical smaller-endpoint order —
/// so every downstream result is bit-identical between the two paths, for
/// every thread count. One overload per width; an EdgeList converts
/// implicitly to the narrow input.
std::vector<Arc> arcs_from_input(const graph::ArcsInput& in);
std::vector<Arc64> arcs_from_input(const graph::ArcsInput64& in);

// The building blocks below are templates over the vertex width,
// instantiated for VertexId and VertexId64 in building_blocks.cpp.

/// ALTER: every arc (u, v) becomes (u.p, v.p); `orig` is preserved.
/// Data-parallel map over the arcs.
template <typename V>
void alter(std::vector<BasicArc<V>>& arcs, const BasicParentForest<V>& forest);

/// Drops self-loop arcs (u == v) with a stable parallel pack. Returns the
/// number removed.
template <typename V>
std::uint64_t drop_loops(std::vector<BasicArc<V>>& arcs);

/// Dedup on (u, v) treating arcs as undirected: orients every arc u <= v,
/// then keeps one per pair, the minimum `orig`. Controls arc-list growth
/// after ALTERs. One path for every size: bucket-partition by mix64(u) high
/// bits, then sort + unique each bucket in parallel. Lists below 16,384
/// arcs form one bucket, so their output is fully (u, v)-sorted. The bucket
/// count is a function of the size only, so for a given input the output
/// (including its order) is identical on every thread count — and on both
/// widths, for ids that fit both. Instantiated for Arc, Arc64 and
/// graph::Edge, the Liu–Tarjan lab's ALTER list, which has no `orig`: equal
/// pairs are equal edges.
template <typename A>
void dedup_arcs(std::vector<A>& arcs);

/// Byte-flag ongoing set: resizes `flags` to n and sets flags[v] to 1 iff v
/// is an endpoint of a non-loop arc — the "ongoing" vertices of a phase —
/// and 0 otherwise; returns how many are set. One pass of idempotent byte
/// stores over the arcs plus a reduce over n, so the count is the same for
/// every thread count. This is how PREPARE decides when to stop, and
/// COMPACT which roots to rename.
std::uint64_t mark_ongoing(std::uint64_t n, const std::vector<Arc>& arcs,
                           std::vector<std::uint8_t>& flags);

/// The same set as a list in id order: mark_ongoing into `flags`, then one
/// stable pack of the flagged ids over n. All must be roots (flat trees +
/// ALTER guarantee this; checked in debug builds). `flags` is the phase
/// loop's hoisted scratch; `out` is clear()ed and refilled, so a phase loop
/// that hoists both reuses their capacity — no per-phase allocation in
/// steady state (part of the RoundArena zero-allocation property; see
/// core/round_arena.hpp). The order does not reach any result: every
/// per-slot quantity of EXPAND, VOTE, LINK and TREE-LINK is keyed by vertex
/// id, and each table's inserts follow arc order.
void collect_ongoing(const ParentForest& forest, const std::vector<Arc>& arcs,
                     std::vector<std::uint8_t>& flags,
                     std::vector<VertexId>& out);

/// Guaranteed-convergent finisher: deterministic Boruvka-style min-label
/// hooking + full flatten + ALTER until no arc remains. O(log n) rounds
/// worst case, no randomness. The randomized drivers bound their phase
/// count only with high probability (with the practical exponents, not
/// provably at all); the finisher turns an unlucky run into extra rounds
/// instead of a wrong answer or an endless loop. Used when a randomized
/// driver exhausts its round budget, and as the last stage of Theorem-3
/// runs. Returns the number of rounds.
std::uint64_t deterministic_contract(ParentForest& forest,
                                     std::vector<Arc>& arcs, RunStats& stats);

/// Spanning-forest flavour: records, for every hook, the original input edge
/// that realised it (`in_forest[orig] = 1`).
std::uint64_t deterministic_contract_sf(ParentForest& forest,
                                        std::vector<Arc>& arcs,
                                        std::vector<std::uint8_t>& in_forest,
                                        RunStats& stats);

}  // namespace logcc::core
