// The paper's four building blocks (§2.2) over an arc list:
//
//   * ALTER        — replace every edge {v,w} by {v.p, w.p};
//   * direct LINK / parent LINK — applied inside the algorithm drivers;
//   * SHORTCUT     — lives on ParentForest (labels.hpp);
//   * expansion    — lives in hash_table/expand/expand_maxlink.
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
// instantiated for VertexId and VertexId64 in building_blocks.cpp. V
// defaults to the narrow width, which a braced-list argument (say
// `has_nonloop({})`) cannot deduce.

/// ALTER: every arc (u, v) becomes (u.p, v.p); `orig` is preserved.
/// Data-parallel map over the arcs.
template <typename V = VertexId>
void alter(std::vector<BasicArc<V>>& arcs, const BasicParentForest<V>& forest);

/// Drops self-loop arcs (u == v) with a stable parallel pack. Returns the
/// number removed.
template <typename V = VertexId>
std::uint64_t drop_loops(std::vector<BasicArc<V>>& arcs);

/// Dedup on (u, v) treating arcs as undirected; keeps the minimum `orig`
/// per surviving pair. Controls arc-list growth after ALTERs. Small lists
/// sort+unique serially; large ones bucket-partition by mix64(u) high bits
/// and sort buckets in parallel. The path is chosen by size only, so for a
/// given input the output (including its order) is identical on every
/// thread count — and on both widths, for ids that fit both.
template <typename V = VertexId>
void dedup_arcs(std::vector<BasicArc<V>>& arcs);

/// True iff some arc is not a self-loop — the paper's "no edge exists other
/// than loops" break condition, negated.
template <typename V = VertexId>
bool has_nonloop(const std::vector<BasicArc<V>>& arcs);

/// Sentinel for the collect_ongoing scratch: "vertex not yet seen".
inline constexpr std::uint64_t kUnseenIndex = static_cast<std::uint64_t>(-1);

/// Distinct endpoints of non-loop arcs — the "ongoing" vertices of a phase,
/// in first-appearance order over the directed arc sweep. All must be roots
/// (flat trees + ALTER guarantee this; checked in debug builds).
/// Data-parallel: a fetch-min of the directed occurrence index per endpoint
/// followed by a stable pack keeping each vertex at its minimum occurrence,
/// so the output is identical for every thread count. `first_seen` is
/// caller-owned scratch the phase loop hoists: all entries must be
/// kUnseenIndex on entry and are restored before returning (by clearing
/// only the touched entries), so each phase costs O(m) parallel work
/// instead of an O(n) re-`assign`. `out` is clear()ed and refilled, so a
/// phase loop that hoists it reuses its capacity — no per-phase allocation
/// in steady state (part of the RoundArena zero-allocation property; see
/// core/round_arena.hpp).
void collect_ongoing(const ParentForest& forest, const std::vector<Arc>& arcs,
                     std::vector<std::uint64_t>& first_seen,
                     std::vector<VertexId>& out);

/// Byte-flag form of the same set: resizes `flags` to n and sets flags[v]
/// to 1 iff v is an endpoint of a non-loop arc, 0 otherwise; returns how
/// many are set. One pass of idempotent byte stores over the arcs plus a
/// reduce over n, so the count is the same for every thread count. This is
/// how PREPARE decides when to stop, and COMPACT which roots to rename.
std::uint64_t mark_ongoing(std::uint64_t n, const std::vector<Arc>& arcs,
                           std::vector<std::uint8_t>& flags);

/// Guaranteed-convergent finisher (DESIGN.md §5.3): deterministic
/// Boruvka-style min-label hooking + full flatten + ALTER until no non-loop
/// arc remains. O(log n) rounds worst case, no randomness. Used when a
/// randomized driver exhausts its round budget, and as the last stage of
/// Theorem-3 runs. Returns the number of rounds.
std::uint64_t deterministic_contract(ParentForest& forest,
                                     std::vector<Arc>& arcs, RunStats& stats);

/// Spanning-forest flavour: records, for every hook, the original input edge
/// that realised it (`in_forest[orig] = 1`).
std::uint64_t deterministic_contract_sf(ParentForest& forest,
                                        std::vector<Arc>& arcs,
                                        std::vector<std::uint8_t>& in_forest,
                                        RunStats& stats);

}  // namespace logcc::core
