// Sequential baselines: union-find with path splitting and union by rank
// (Tarjan & van Leeuwen 1984) — the practical sequential yardstick — and a
// reusable DisjointSets structure used by validators.
#pragma once

#include <cstdint>
#include <vector>

#include "core/metrics.hpp"
#include "graph/arcs_input.hpp"

namespace logcc::baselines {

template <typename V>
class BasicDisjointSets {
 public:
  explicit BasicDisjointSets(std::uint64_t n);

  V find(V v);
  /// Returns true if u and v were in different sets (i.e. a merge happened).
  bool unite(V u, V v);
  std::uint64_t num_sets() const { return num_sets_; }

 private:
  std::vector<V> parent_;
  std::vector<std::uint8_t> rank_;
  std::uint64_t num_sets_;
};

using DisjointSets = BasicDisjointSets<graph::VertexId>;

extern template class BasicDisjointSets<graph::VertexId>;
extern template class BasicDisjointSets<graph::VertexId64>;

/// Connected components via union-find; labels are min vertex ids, so the
/// result is execution-independent — the oracle for everything else, at
/// both index widths. Streams edges straight off the backing storage
/// (zero-copy for CSR datasets); an EdgeList converts implicitly to the
/// narrow input.
core::CcResult union_find_cc(const graph::ArcsInput& in);
core::CcResult64 union_find_cc(const graph::ArcsInput64& in);

}  // namespace logcc::baselines
