#include "baselines/label_propagation.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace logcc::baselines {

using graph::Edge;
using graph::VertexId;

core::CcResult label_propagation(const graph::ArcsInput& in) {
  const std::uint64_t n = in.num_vertices();
  std::vector<VertexId> label(n), next(n);
  for (std::uint64_t v = 0; v < n; ++v) label[v] = static_cast<VertexId>(v);

  core::CcResult out;
  bool changed = true;
  while (changed) {
    changed = false;
    ++out.stats.rounds;
    next = label;  // synchronous update: reads see the previous round
    in.for_each_edge([&](VertexId u, VertexId v, std::uint32_t) {
      next[u] = std::min(next[u], label[v]);
      next[v] = std::min(next[v], label[u]);
    });
    if (next != label) {
      changed = true;
      label.swap(next);
    }
  }
  out.labels = std::move(label);
  return out;
}

core::CcResult liu_tarjan(const graph::ArcsInput& in) {
  const std::uint64_t n = in.num_vertices();
  std::vector<VertexId> p(n);
  for (std::uint64_t v = 0; v < n; ++v) p[v] = static_cast<VertexId>(v);
  // The shrinking arc list is the algorithm's own working set (ALTER
  // rewrites it every round); seed it straight from the input — no
  // intermediate EdgeList for CSR-backed datasets.
  std::vector<Edge> edges;
  edges.reserve(in.num_edges());
  in.for_each_edge(
      [&](VertexId u, VertexId v, std::uint32_t) { edges.push_back({u, v}); });

  core::CcResult out;
  // Hoisted round buffers: steady-state rounds reuse capacity, never
  // allocate (the round-scratch rule of core/round_arena.hpp).
  std::vector<VertexId> target;
  std::vector<Edge> next;
  while (true) {
    ++out.stats.rounds;
    bool linked = false;
    // Parent link (min-combining flavour): every vertex adopts the smallest
    // neighbouring parent label; monotone, cycle-free because links strictly
    // decrease labels.
    target = p;
    for (const auto& e : edges) {
      target[e.u] = std::min(target[e.u], p[e.v]);
      target[e.v] = std::min(target[e.v], p[e.u]);
    }
    for (std::uint64_t v = 0; v < n; ++v) {
      if (target[v] < p[p[v]]) {
        p[p[v]] = target[v];  // hook v's root downward
        linked = true;
      }
    }
    // Shortcut.
    for (std::uint64_t v = 0; v < n; ++v) p[v] = p[p[v]];
    // Alter: rewrite edges to parents, dropping loops.
    next.clear();
    next.reserve(edges.size());
    for (const auto& e : edges) {
      VertexId a = p[e.u], b = p[e.v];
      if (a != b) next.push_back({a, b});
    }
    edges.swap(next);
    if (edges.empty() && !linked) break;
    LOGCC_CHECK_MSG(out.stats.rounds <= 4096, "liu_tarjan failed to converge");
  }

  for (std::uint64_t v = 0; v < n; ++v) {
    VertexId r = p[v];
    while (p[r] != r) r = p[r];
    p[v] = r;
  }
  out.labels = std::move(p);
  return out;
}

}  // namespace logcc::baselines
