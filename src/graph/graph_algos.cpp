#include "graph/graph_algos.hpp"

#include <algorithm>
#include <queue>
#include <string>
#include <unordered_map>

#include "util/check.hpp"

namespace logcc::graph {

std::vector<VertexId> bfs_components(const CsrView& view) {
  const std::uint64_t n = view.n;
  std::vector<VertexId> label(n, kInvalidVertex);
  std::vector<VertexId> queue;
  for (std::uint64_t s = 0; s < n; ++s) {
    if (label[s] != kInvalidVertex) continue;
    VertexId root = static_cast<VertexId>(s);
    label[s] = root;
    queue.clear();
    queue.push_back(root);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      VertexId v = queue[head];
      for (VertexId w : view.neighbors(v)) {
        if (label[w] == kInvalidVertex) {
          label[w] = root;
          queue.push_back(w);
        }
      }
    }
  }
  return label;  // min-id labels because s scans upward
}

std::vector<VertexId> bfs_components(const Graph& g) {
  return bfs_components(csr_view(g));
}

std::uint64_t count_components(const std::vector<VertexId>& labels) {
  std::vector<VertexId> uniq(labels);
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
  return uniq.size();
}

namespace {

template <typename V>
std::vector<V> canonical_labels_impl(const std::vector<V>& labels) {
  // Map each label to the min vertex id carrying it.
  std::unordered_map<V, V> min_of;
  min_of.reserve(labels.size());
  for (std::size_t v = 0; v < labels.size(); ++v) {
    auto [it, inserted] = min_of.try_emplace(labels[v], static_cast<V>(v));
    if (!inserted) it->second = std::min(it->second, static_cast<V>(v));
  }
  std::vector<V> out(labels.size());
  for (std::size_t v = 0; v < labels.size(); ++v) out[v] = min_of[labels[v]];
  return out;
}

}  // namespace

std::vector<VertexId> canonical_labels(const std::vector<VertexId>& labels) {
  return canonical_labels_impl(labels);
}

std::vector<VertexId64> canonical_labels(
    const std::vector<VertexId64>& labels) {
  return canonical_labels_impl(labels);
}

bool same_partition(const std::vector<VertexId>& a,
                    const std::vector<VertexId>& b) {
  if (a.size() != b.size()) return false;
  return canonical_labels(a) == canonical_labels(b);
}

namespace {
/// BFS from `source`; returns (farthest vertex, distance).
std::pair<VertexId, std::uint64_t> bfs_far(const Graph& g, VertexId source,
                                           std::vector<std::uint32_t>& dist) {
  dist.assign(g.num_vertices(), static_cast<std::uint32_t>(-1));
  std::vector<VertexId> queue{source};
  dist[source] = 0;
  VertexId far = source;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    VertexId v = queue[head];
    for (VertexId w : g.neighbors(v)) {
      if (dist[w] == static_cast<std::uint32_t>(-1)) {
        dist[w] = dist[v] + 1;
        if (dist[w] > dist[far]) far = w;
        queue.push_back(w);
      }
    }
  }
  return {far, dist[far]};
}
}  // namespace

std::uint64_t eccentricity(const Graph& g, VertexId source) {
  std::vector<std::uint32_t> dist;
  return bfs_far(g, source, dist).second;
}

std::uint64_t exact_max_diameter(const Graph& g) {
  std::uint64_t best = 0;
  for (std::uint64_t v = 0; v < g.num_vertices(); ++v)
    best = std::max(best, eccentricity(g, static_cast<VertexId>(v)));
  return best;
}

std::uint64_t pseudo_diameter(const Graph& g) {
  const std::uint64_t n = g.num_vertices();
  std::vector<bool> seen(n, false);
  std::vector<std::uint32_t> dist;
  std::uint64_t best = 0;
  for (std::uint64_t s = 0; s < n; ++s) {
    if (seen[s]) continue;
    auto [far, _] = bfs_far(g, static_cast<VertexId>(s), dist);
    for (std::uint64_t v = 0; v < n; ++v)
      if (dist[v] != static_cast<std::uint32_t>(-1)) seen[v] = true;
    auto [far2, d2] = bfs_far(g, far, dist);
    (void)far2;
    best = std::max(best, d2);
  }
  return best;
}

ForestCheck validate_spanning_forest(
    const EdgeList& el, const std::vector<std::uint64_t>& forest_edges) {
  ForestCheck out;
  const std::uint64_t n = el.n;
  // Union-find over forest edges detects cycles.
  std::vector<VertexId> parent(n);
  for (std::uint64_t v = 0; v < n; ++v) parent[v] = static_cast<VertexId>(v);
  auto find = [&](VertexId v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };
  for (std::uint64_t idx : forest_edges) {
    if (idx >= el.edges.size()) {
      out.error = "forest edge index out of range";
      return out;
    }
    const Edge& e = el.edges[idx];
    VertexId ru = find(e.u), rv = find(e.v);
    if (ru == rv) {
      out.error = "forest contains a cycle (or duplicate edge)";
      return out;
    }
    parent[ru] = rv;
  }
  // Spanning: number of forest edges must equal n - #components of el.
  Graph g = Graph::from_edges(el);
  std::uint64_t comps = count_components(bfs_components(g));
  if (forest_edges.size() != n - comps) {
    out.error = "forest has " + std::to_string(forest_edges.size()) +
                " edges, expected " + std::to_string(n - comps);
    return out;
  }
  out.ok = true;
  return out;
}

std::vector<std::uint64_t> component_sizes(const std::vector<VertexId>& labels) {
  std::unordered_map<VertexId, std::uint64_t> count;
  for (VertexId l : labels) ++count[l];
  std::vector<std::uint64_t> sizes;
  sizes.reserve(count.size());
  for (const auto& [l, c] : count) {
    (void)l;
    sizes.push_back(c);
  }
  std::sort(sizes.rbegin(), sizes.rend());
  return sizes;
}

}  // namespace logcc::graph
