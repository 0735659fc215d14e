// The labeled digraph (§2.1): every vertex carries a parent pointer v.p; the
// digraph's only cycles are self-loops, so it is a forest of rooted trees.
// ParentForest owns the pointer array plus the operations and invariant
// checks every algorithm in the paper shares: the PRAM algorithms, the
// serving engine's batch merge, StreamStats and the MPC simulation all keep
// their parent pointers in one. The incremental consumers link through
// unite(), a sequential union by minimum id, and flatten() to canonical
// min-id labels. shortcut_step is the one synchronous SHORTCUT step (§2.2):
// the forest runs it on its own array, and SV, AS and the Liu–Tarjan lab on
// theirs.
//
// Index-width contract: the forest is a template over the vertex width V,
// like the graph.hpp types. ParentForest is the narrow (uint32)
// instantiation every algorithm runs on; ParentForest64 is the same code at
// 64 bits, which the wide Vanilla and faster-cc bridge run on. Both are
// instantiated explicitly in labels.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace logcc::core {

using graph::VertexId;
using graph::VertexId64;

/// One synchronous SHORTCUT step over a parent array: next[v] := p[p[v]]
/// for every v (every read sees the pre-step pointers), then p and next
/// swap. Returns true iff any pointer changed. `next` is the caller's
/// double buffer, resized to p.size(); passing the same one every step
/// keeps a flatten loop allocation-free. Instantiated for VertexId and
/// VertexId64 in labels.cpp.
template <typename V>
bool shortcut_step(std::vector<V>& p, std::vector<V>& next);

template <typename V>
class BasicParentForest {
 public:
  BasicParentForest() = default;
  explicit BasicParentForest(std::uint64_t n) { reset(n); }

  void reset(std::uint64_t n) {
    parent_.resize(n);
    for (std::uint64_t v = 0; v < n; ++v) parent_[v] = static_cast<V>(v);
  }

  std::uint64_t size() const { return parent_.size(); }

  V parent(V v) const { return parent_[v]; }
  void set_parent(V v, V p) { parent_[v] = p; }

  bool is_root(V v) const { return parent_[v] == v; }

  /// One synchronous SHORTCUT step (shortcut_step on the pointer array).
  /// Returns true if any pointer changed.
  bool shortcut() { return shortcut_step(parent_, scratch_); }

  /// Repeats SHORTCUT until every tree is flat; returns the number of steps
  /// (<= ceil(log2 height) + 1).
  std::uint64_t flatten();

  /// Root of v's tree by pointer chasing (no mutation).
  V find_root(V v) const;

  /// Sequential union by minimum id with path halving: links the larger of
  /// u's and v's roots under the smaller and returns true iff it linked
  /// (the roots differed). In a forest whose roots are their trees' minima
  /// (a fresh or flat canonical one), every root stays its tree's minimum
  /// whatever the call order, so flatten() afterwards gives the canonical
  /// min-id labels of the union of the edges seen.
  bool unite(V u, V v);

  bool all_flat() const;

  /// Invariant check (§2.1): the only cycles are self-loops.
  bool acyclic() const;

  const std::vector<V>& raw() const { return parent_; }
  std::vector<V>& raw() { return parent_; }

  /// Labels vector where every vertex maps to its root.
  std::vector<V> root_labels() const;

 private:
  std::vector<V> parent_;
  // Double buffer for shortcut(); persists across calls so flatten() and the
  // phase loops allocate once per forest instead of once per step.
  std::vector<V> scratch_;
};

using ParentForest = BasicParentForest<VertexId>;
using ParentForest64 = BasicParentForest<VertexId64>;

extern template class BasicParentForest<VertexId>;
extern template class BasicParentForest<VertexId64>;

/// Lemma 3.2 / D.4 invariant: every non-root has level strictly below its
/// parent's level. Returns true when it holds.
bool level_invariant_holds(const ParentForest& forest,
                           const std::vector<std::uint32_t>& level);

}  // namespace logcc::core
