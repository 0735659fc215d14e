#include "baselines/union_find.hpp"

#include <algorithm>

namespace logcc::baselines {

template <typename V>
BasicDisjointSets<V>::BasicDisjointSets(std::uint64_t n)
    : parent_(n), rank_(n, 0), num_sets_(n) {
  for (std::uint64_t v = 0; v < n; ++v) parent_[v] = static_cast<V>(v);
}

template <typename V>
V BasicDisjointSets<V>::find(V v) {
  // Path splitting: every node on the find path points to its grandparent.
  while (parent_[v] != v) {
    V next = parent_[v];
    parent_[v] = parent_[next];
    v = next;
  }
  return v;
}

template <typename V>
bool BasicDisjointSets<V>::unite(V u, V v) {
  V ru = find(u), rv = find(v);
  if (ru == rv) return false;
  if (rank_[ru] < rank_[rv]) std::swap(ru, rv);
  parent_[rv] = ru;
  if (rank_[ru] == rank_[rv]) ++rank_[ru];
  --num_sets_;
  return true;
}

template class BasicDisjointSets<graph::VertexId>;
template class BasicDisjointSets<graph::VertexId64>;

namespace {

template <typename V>
core::BasicCcResult<V> union_find_impl(const graph::BasicArcsInput<V>& in) {
  using OrigId = typename graph::BasicArcsInput<V>::OrigId;
  const std::uint64_t n = in.num_vertices();
  BasicDisjointSets<V> ds(n);
  in.for_each_edge([&](V u, V v, OrigId) { ds.unite(u, v); });

  core::BasicCcResult<V> out;
  out.stats.rounds = 1;
  // Canonicalise to min-id labels.
  std::vector<V> min_of(n);
  for (std::uint64_t v = 0; v < n; ++v) min_of[v] = static_cast<V>(v);
  for (std::uint64_t v = 0; v < n; ++v) {
    V r = ds.find(static_cast<V>(v));
    min_of[r] = std::min(min_of[r], static_cast<V>(v));
  }
  out.labels.resize(n);
  for (std::uint64_t v = 0; v < n; ++v)
    out.labels[v] = min_of[ds.find(static_cast<V>(v))];
  return out;
}

}  // namespace

core::CcResult union_find_cc(const graph::ArcsInput& in) {
  return union_find_impl(in);
}

core::CcResult64 union_find_cc(const graph::ArcsInput64& in) {
  return union_find_impl(in);
}

}  // namespace logcc::baselines
