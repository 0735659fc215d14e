#include "mpc/mpc_cc.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "core/labels.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace logcc::mpc {

using core::ParentForest;
using graph::Edge;
using graph::VertexId;

namespace {

/// Relabels arcs by the (flat) parent map, drops loops, dedups. One ALTER =
/// a constant number of MPC primitives.
void alter_arcs(MpcEngine& engine, std::vector<Edge>& arcs,
                const std::vector<VertexId>& parent) {
  engine.map_round(arcs.size() * 2);
  for (Edge& e : arcs) {
    e.u = parent[e.u];
    e.v = parent[e.v];
  }
  std::erase_if(arcs, [](const Edge& e) { return e.u == e.v; });
  for (Edge& e : arcs)
    if (e.u > e.v) std::swap(e.u, e.v);
  engine.sort(arcs, [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
}

/// Deterministic Boruvka fallback, each round a constant number of
/// primitives; guarantees termination regardless of coin flips.
void boruvka_finish(MpcEngine& engine, std::vector<Edge>& arcs,
                    ParentForest& forest, std::uint64_t* phases) {
  const std::uint64_t n = forest.size();
  while (!arcs.empty()) {
    ++*phases;
    engine.map_round(arcs.size());
    std::vector<VertexId> best(n);
    for (std::size_t v = 0; v < n; ++v) best[v] = static_cast<VertexId>(v);
    for (const Edge& e : arcs) {
      best[e.u] = std::min(best[e.u], e.v);
      best[e.v] = std::min(best[e.v], e.u);
    }
    for (std::size_t v = 0; v < n; ++v) {
      const auto x = static_cast<VertexId>(v);
      if (forest.is_root(x) && best[v] < x) forest.set_parent(x, best[v]);
    }
    engine.map_round(n);  // flattening a contraction is one map round
    forest.flatten();
    alter_arcs(engine, arcs, forest.raw());
    LOGCC_CHECK_MSG(*phases < 1u << 20, "MPC Boruvka diverged");
  }
}

}  // namespace

MpcCcResult mpc_vanilla_cc(const graph::EdgeList& el, std::uint64_t seed,
                           const MpcConfig& config_in) {
  MpcConfig config = config_in;
  config.n = std::max<std::uint64_t>(el.n, 2);
  MpcEngine engine(config);
  util::Xoshiro256 rng(seed);

  const std::uint64_t n = el.n;
  ParentForest forest(n);
  std::vector<Edge> arcs = el.edges;
  alter_arcs(engine, arcs, forest.raw());  // canonicalise

  MpcCcResult out;
  while (!arcs.empty()) {
    ++out.phases;
    // Leader coin flips + links: one map round.
    engine.map_round(n + arcs.size());
    std::vector<std::uint8_t> leader(n);
    for (std::uint64_t v = 0; v < n; ++v) leader[v] = rng.bernoulli(0.5);
    for (const Edge& e : arcs) {
      // Endpoints are roots (arcs are altered every phase), and leaders
      // stay roots, so the forest stays acyclic and flatten() reaches
      // every vertex's root.
      if (!leader[e.u] && leader[e.v]) forest.set_parent(e.u, e.v);
      if (!leader[e.v] && leader[e.u]) forest.set_parent(e.v, e.u);
    }
    engine.map_round(n);
    forest.flatten();
    alter_arcs(engine, arcs, forest.raw());
    if (out.phases > 64 + 8 * 64) {  // paranoia; vanishing probability
      boruvka_finish(engine, arcs, forest, &out.phases);
    }
  }
  out.labels = std::move(forest.raw());  // flat: every phase ends flattened
  out.ledger = engine.ledger();
  return out;
}

MpcCcResult mpc_log_diameter_cc(const graph::EdgeList& el, std::uint64_t seed,
                                const MpcConfig& config_in) {
  MpcConfig config = config_in;
  config.n = std::max<std::uint64_t>(el.n, 2);
  MpcEngine engine(config);
  util::Xoshiro256 rng(seed);

  const std::uint64_t n = el.n;
  const double log_n = std::log2(static_cast<double>(std::max<std::uint64_t>(n, 4)));
  ParentForest forest(n);
  std::vector<Edge> arcs = el.edges;
  alter_arcs(engine, arcs, forest.raw());
  const std::uint64_t m0 = std::max<std::uint64_t>(arcs.size(), 1);

  MpcCcResult out;
  double budget = 2.0;

  while (!arcs.empty() && out.phases < 64) {
    ++out.phases;

    // Recompute the degree budget from the current density (the model's
    // space headroom): b = max(2, m / n'), squared each phase.
    std::vector<VertexId> active;
    {
      engine.map_round(arcs.size());
      active.reserve(arcs.size());
      for (const Edge& e : arcs) {
        active.push_back(e.u);
        active.push_back(e.v);
      }
      engine.dedup(active);
    }
    const double density =
        static_cast<double>(m0) / std::max<double>(1.0, active.size());
    budget = std::min(double{1 << 30},
                      std::max({budget * budget, density, 2.0}));
    const std::uint64_t b = static_cast<std::uint64_t>(budget);

    // EXPANSION (§A.1): square neighbour sets until every active vertex has
    // ≥ b neighbours or its whole component. Each squaring is a sorted join
    // + dedup + truncate-to-b: O(1) rounds; ≤ log d squarings.
    std::unordered_map<VertexId, std::vector<VertexId>> nbrs;
    nbrs.reserve(active.size() * 2);
    for (const Edge& e : arcs) {
      nbrs[e.u].push_back(e.v);
      nbrs[e.v].push_back(e.u);
    }
    std::vector<std::uint8_t> full(n, 0);  // neighbour set = whole component
    for (std::uint32_t step = 0; step < 64; ++step) {
      ++out.expand_steps;
      engine.map_round(arcs.size());
      engine.sort(arcs, [](const Edge& a, const Edge& c) {
        return a.u != c.u ? a.u < c.u : a.v < c.v;
      });
      bool all_done = true;
      std::unordered_map<VertexId, std::vector<VertexId>> next = nbrs;
      for (VertexId u : active) {
        auto& cur = nbrs[u];
        if (full[u] || cur.size() >= b) continue;
        auto& grow = next[u];
        for (VertexId v : cur) {
          const auto& nv = nbrs[v];
          grow.insert(grow.end(), nv.begin(), nv.end());
          if (grow.size() > 4 * b + 8) break;  // truncation keeps memory O(b)
        }
        std::sort(grow.begin(), grow.end());
        grow.erase(std::unique(grow.begin(), grow.end()), grow.end());
        std::erase(grow, u);
        if (grow.size() > b) grow.resize(b);  // keep the b smallest
        if (grow.size() == cur.size() && grow.size() < b) full[u] = 1;
        if (!full[u] && grow.size() < b) all_done = false;
      }
      nbrs.swap(next);
      if (all_done) break;
    }

    // VOTING + CONTRACTION: leaders with probability Θ(log n / b); full
    // vertices contract deterministically to their component minimum.
    // Non-full leaders stay roots, full vertices link to a smaller id and
    // the rest to a non-full leader, so the forest stays acyclic and
    // flatten() reaches every vertex's root.
    engine.map_round(active.size());
    const double p_leader = std::min(1.0, 2.0 * log_n / static_cast<double>(b));
    std::vector<std::uint8_t> leader(n, 0);
    for (VertexId u : active) leader[u] = rng.bernoulli(p_leader);
    for (VertexId u : active) {
      const auto& nu = nbrs[u];
      if (full[u]) {
        VertexId mn = u;
        for (VertexId w : nu) mn = std::min(mn, w);
        forest.set_parent(u, mn);
        continue;
      }
      if (leader[u]) continue;
      // Only link to non-full leaders: a full leader contracts downward to
      // its component minimum this same round, and linking up at it could
      // close a 2-cycle. (It resolves next phase via the altered arcs.)
      VertexId target = graph::kInvalidVertex;
      for (VertexId w : nu)
        if (leader[w] && !full[w]) target = std::min(target, w);
      if (target != graph::kInvalidVertex) forest.set_parent(u, target);
    }
    engine.map_round(n);
    forest.flatten();
    alter_arcs(engine, arcs, forest.raw());
  }

  if (!arcs.empty()) boruvka_finish(engine, arcs, forest, &out.phases);

  out.labels = std::move(forest.raw());  // flat: every phase ends flattened
  out.ledger = engine.ledger();
  return out;
}

}  // namespace logcc::mpc
