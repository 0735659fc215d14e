// ArcsInput: the one input type every CC/SF entry point consumes.
//
// Algorithms in src/core/ and src/baselines/ are arc-list machines: they
// need the undirected edges of the input, in a deterministic order, with a
// stable per-edge index (`orig`) for spanning-forest output. Historically
// that meant `EdgeList` — and mmap-loaded binary CSR datasets paid a full
// re-materialization (edge_list_from_csr) before the first round could run.
//
// ArcsInput is the non-owning fix: a `{n, span-of-edges | CsrView}` sum
// type. Edge-list-backed inputs view the caller's vector; CSR-backed inputs
// alias the mmap pages (or a Graph's arrays) directly, and the algorithms'
// ingestion path (core::arcs_from_input) scatters arcs straight from the
// CSR into their caller-owned scratch — no intermediate EdgeList ever
// exists.
//
// Canonical edge order — the determinism keystone: a CSR-backed input
// enumerates each undirected edge from its smaller endpoint, vertices
// ascending, neighbor suffixes in sorted order. This is *exactly* the order
// edge_list_from_csr materializes, so for the same dataset the CSR-native
// and EdgeList paths feed algorithms identical (u, v, orig) sequences and
// the results are bit-identical (tests/test_differential_cc.cpp pins this).
//
// Index-type contract: CsrView and ArcsInput are templates over the vertex
// width V, like the graph.hpp types. The narrow aliases (CsrView, ArcsInput)
// keep dense uint32 `orig` indices; the wide aliases (CsrView64, ArcsInput64)
// use uint64 for both ids and orig, so >2^32-edge LOGCCSR2 datasets
// enumerate without the narrow cap. The canonical edge order is defined once,
// width-generically, by csr_suffix below.
//
// Ownership rule: ArcsInput owns nothing. The backing storage — the
// EdgeList vector, the graph::BinaryGraph mmap handle, or the Graph — must
// outlive every use of the input (see docs/ARCHITECTURE.md, "Zero-copy
// ownership rule").
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>

#include "graph/graph.hpp"
#include "util/check.hpp"

namespace logcc::graph {

/// Non-owning CSR adjacency view (what the mmap loader hands out). Valid
/// exactly as long as its backing storage (BinaryGraph or Graph). Each
/// undirected edge appears as two arcs (a self-loop as one); neighbor lists
/// are sorted ascending — the conventions of the LOGCCSR1/LOGCCSR2 on-disk
/// formats (graph/binary_io.hpp) and of Graph::from_edges(el,
/// /*dedup=*/false).
template <typename V>
struct BasicCsrView {
  std::uint64_t n = 0;
  std::uint64_t edges = 0;                 // undirected count
  const std::uint64_t* offsets = nullptr;  // n+1 entries, offsets[0] == 0
  const V* adj = nullptr;                  // offsets[n] entries

  std::uint64_t num_vertices() const { return n; }
  std::uint64_t num_edges() const { return edges; }
  std::uint64_t num_arcs() const { return offsets ? offsets[n] : 0; }
  /// uint64 even on the narrow view: v1 files legally hold up to ~2^33
  /// arcs, so one vertex's arc range can exceed uint32.
  std::uint64_t degree(V v) const { return offsets[v + 1] - offsets[v]; }
  std::span<const V> neighbors(V v) const {
    return {adj + offsets[v], adj + offsets[v + 1]};
  }
};

using CsrView = BasicCsrView<VertexId>;
using CsrView64 = BasicCsrView<VertexId64>;

/// Start of the w >= u suffix of u's sorted neighbor list — the arcs whose
/// undirected edge u is the smaller endpoint of (self-loops once, parallel
/// copies kept). THE definition of the canonical edge order: every
/// canonical enumerator (ArcsInput::for_each_edge, edge_list_from_csr,
/// core::arcs_from_input) walks these suffixes with vertices ascending, so
/// the order is specified in exactly one place.
template <typename V>
inline const V* csr_suffix_begin(const BasicCsrView<V>& v, V u) {
  auto nb = v.neighbors(u);
  return std::lower_bound(nb.data(), nb.data() + nb.size(), u);
}

/// The suffix itself, as a span — use this (not a hand-rolled
/// begin/end pair) wherever the canonical order is enumerated or counted.
template <typename V>
inline std::span<const V> csr_suffix(const BasicCsrView<V>& v, V u) {
  auto nb = v.neighbors(u);
  return {csr_suffix_begin(v, u), nb.data() + nb.size()};
}

/// CSR view of a Graph's adjacency arrays (zero-copy; valid while the Graph
/// is alive). The edge count follows the canonical convention: parallel
/// copies counted, self-loops once.
template <typename V>
inline BasicCsrView<V> csr_view(const BasicGraph<V>& g) {
  BasicCsrView<V> v;
  v.n = g.num_vertices();
  v.edges = (g.num_arcs() + g.num_self_loops()) / 2;
  v.offsets = g.raw_offsets().data();
  v.adj = g.raw_adj().data();
  return v;
}

/// Non-owning algorithm input: n vertices plus undirected edges, backed by
/// either an edge span or a CSR view. See the file comment for the
/// canonical order and ownership rules. CSR-backed inputs must satisfy the
/// validate_csr invariants (sorted symmetric adjacency, consistent edge
/// count) — load_dataset_zero_copy-produced views always do.
template <typename V>
class BasicArcsInput {
 public:
  /// Dense per-edge index type: uint32 on the narrow path (what the core
  /// algorithms' scratch assumes), uint64 on the wide path.
  using OrigId =
      std::conditional_t<sizeof(V) == 4, std::uint32_t, std::uint64_t>;

  BasicArcsInput() = default;

  /// Implicit view of an edge list, so every ArcsInput entry point also
  /// takes an EdgeList. Same as from_edges(el), under the same lifetime
  /// rule: `el` must outlive every use of the input. Passing a temporary
  /// list straight to an entry point is fine; keeping an input built from
  /// one is not.
  BasicArcsInput(const BasicEdgeList<V>& el) : n_(el.n), edges_(el.edges) {}

  static BasicArcsInput from_edges(const BasicEdgeList<V>& el) {
    return BasicArcsInput(el);
  }
  static BasicArcsInput from_edges(std::uint64_t n,
                                   std::span<const BasicEdge<V>> edges) {
    BasicArcsInput in;
    in.n_ = n;
    in.edges_ = edges;
    return in;
  }
  static BasicArcsInput from_csr(const BasicCsrView<V>& v) {
    BasicArcsInput in;
    in.n_ = v.n;
    in.csr_ = v;  // copies the (pointer-sized) view, not the arrays
    return in;
  }

  std::uint64_t num_vertices() const { return n_; }
  std::uint64_t num_edges() const {
    return csr_backed() ? csr_.edges : edges_.size();
  }
  bool csr_backed() const { return csr_.offsets != nullptr; }

  /// Edge-backed storage (empty span when CSR-backed).
  std::span<const BasicEdge<V>> edge_span() const { return edges_; }
  /// CSR-backed storage (null view when edge-backed).
  const BasicCsrView<V>& csr() const { return csr_; }

  /// Enumerates every undirected edge once, as fn(u, v, orig), in the
  /// canonical order (see file comment); `orig` is the dense edge index the
  /// spanning-forest results refer to. Serial — the round-loop baselines
  /// (SV, AS, label-prop) sweep edges through this every round instead of
  /// materializing them.
  template <typename Fn>
  void for_each_edge(Fn&& fn) const {
    // Same bound core::arcs_from_input enforces: `orig` indices are dense
    // in OrigId (id OrigId(-1) would alias nothing, but a wrapped counter
    // would silently duplicate indices — or never terminate the edge loop).
    LOGCC_CHECK_MSG(num_edges() <= std::numeric_limits<OrigId>::max(),
                    "edge count exceeds the orig-index space");
    if (!csr_backed()) {
      for (OrigId i = 0; i < edges_.size(); ++i)
        fn(edges_[i].u, edges_[i].v, i);
      return;
    }
    OrigId orig = 0;
    for (std::uint64_t u = 0; u < n_; ++u) {
      for (V w : csr_suffix(csr_, static_cast<V>(u)))
        fn(static_cast<V>(u), w, orig++);
    }
  }

 private:
  std::uint64_t n_ = 0;
  std::span<const BasicEdge<V>> edges_{};
  BasicCsrView<V> csr_{};
};

using ArcsInput = BasicArcsInput<VertexId>;
using ArcsInput64 = BasicArcsInput<VertexId64>;

}  // namespace logcc::graph
