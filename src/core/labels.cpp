#include "core/labels.hpp"

#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/scan.hpp"

namespace logcc::core {

template <typename V>
bool shortcut_step(std::vector<V>& p, std::vector<V>& next) {
  // Fused pass: compute next[v] = p[p[v]] and fold the changed flag in the
  // same sweep (parallel_reduce runs the map exactly once per index, which
  // the write into `next` relies on). Double-buffering keeps the step
  // synchronous.
  next.resize(p.size());
  const bool changed = util::parallel_reduce(
      std::size_t{0}, p.size(), false,
      [&](std::size_t v) {
        const V t = p[p[v]];
        next[v] = t;
        return t != p[v];
      },
      [](bool x, bool y) { return x || y; });
  p.swap(next);
  return changed;
}

template bool shortcut_step(std::vector<VertexId>&, std::vector<VertexId>&);
template bool shortcut_step(std::vector<VertexId64>&, std::vector<VertexId64>&);

template <typename V>
std::uint64_t BasicParentForest<V>::flatten() {
  std::uint64_t steps = 0;
  while (shortcut()) ++steps;
  return steps + 1;  // the final no-op step is still a step
}

template <typename V>
V BasicParentForest<V>::find_root(V v) const {
  V steps = 0;
  while (parent_[v] != v) {
    v = parent_[v];
    LOGCC_CHECK_MSG(++steps <= parent_.size(), "cycle in parent forest");
  }
  return v;
}

template <typename V>
bool BasicParentForest<V>::unite(V u, V v) {
  // Path halving: each hop points x at its grandparent, which keeps a long
  // stream's trees shallow without a rank array. Pointers only move to
  // ancestors, so the roots, and hence the minima, stay where they are.
  const auto root = [&](V x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  };
  const V ru = root(u);
  const V rv = root(v);
  if (ru == rv) return false;
  if (ru < rv)
    parent_[rv] = ru;
  else
    parent_[ru] = rv;
  return true;
}

template <typename V>
bool BasicParentForest<V>::all_flat() const {
  for (std::uint64_t v = 0; v < parent_.size(); ++v)
    if (parent_[parent_[v]] != parent_[v]) return false;
  return true;
}

template <typename V>
bool BasicParentForest<V>::acyclic() const {
  // Iterative colouring walk: any vertex returning to an in-progress walk
  // without reaching a self-loop witnesses a nontrivial cycle.
  const std::uint64_t n = parent_.size();
  std::vector<std::uint8_t> state(n, 0);  // 0 unvisited, 1 on path, 2 done
  std::vector<V> path;
  for (std::uint64_t s = 0; s < n; ++s) {
    if (state[s] != 0) continue;
    V v = static_cast<V>(s);
    path.clear();
    while (state[v] == 0) {
      state[v] = 1;
      path.push_back(v);
      V p = parent_[v];
      if (p == v) break;  // root
      v = p;
    }
    if (state[v] == 1 && parent_[v] != v) return false;  // hit the open path
    for (V u : path) state[u] = 2;
  }
  return true;
}

template <typename V>
std::vector<V> BasicParentForest<V>::root_labels() const {
  std::vector<V> out(parent_.size());
  util::parallel_for(0, parent_.size(), [&](std::size_t v) {
    out[v] = find_root(static_cast<V>(v));
  });
  return out;
}

template class BasicParentForest<VertexId>;
template class BasicParentForest<VertexId64>;

bool level_invariant_holds(const ParentForest& forest,
                           const std::vector<std::uint32_t>& level) {
  LOGCC_CHECK(forest.size() == level.size());
  for (std::uint64_t v = 0; v < forest.size(); ++v) {
    VertexId p = forest.parent(static_cast<VertexId>(v));
    if (p != static_cast<VertexId>(v) && level[v] >= level[p]) return false;
  }
  return true;
}

}  // namespace logcc::core
