#include "baselines/lt_family.hpp"

#include <algorithm>
#include <cstdint>

#include "core/building_blocks.hpp"
#include "core/labels.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/scan.hpp"

namespace logcc::baselines {

using graph::Edge;
using graph::VertexId;

std::string LtVariant::name() const {
  std::string s;
  switch (connect) {
    case LtConnect::kDirect: s += "D"; break;
    case LtConnect::kParent: s += "P"; break;
    case LtConnect::kExtended: s += "E"; break;
  }
  s += shortcut == LtShortcut::kSingle ? "-S" : "-F";
  if (alter) s += "-A";
  return s;
}

std::vector<LtVariant> lt_all_variants() {
  std::vector<LtVariant> out;
  for (LtConnect c :
       {LtConnect::kDirect, LtConnect::kParent, LtConnect::kExtended})
    for (LtShortcut s : {LtShortcut::kSingle, LtShortcut::kFull})
      for (bool a : {false, true}) {
        if (c == LtConnect::kDirect && !a) continue;  // see header
        out.push_back({c, s, a});
      }
  return out;
}

std::vector<LtVariant> lt_incorrect_variants() {
  return {{LtConnect::kDirect, LtShortcut::kSingle, false},
          {LtConnect::kDirect, LtShortcut::kFull, false}};
}

core::CcResult liu_tarjan_variant(const graph::ArcsInput& in,
                                  const LtVariant& variant) {
  const std::uint64_t n = in.num_vertices();
  std::vector<VertexId> p(n), next(n);
  util::parallel_for(0, n,
                     [&](std::size_t v) { p[v] = static_cast<VertexId>(v); });

  // ALTER variants materialize a shrinking working list after round 1;
  // without ALTER every round sweeps the input's own storage (the CSR
  // adjacency of an mmap dataset, or the caller's edge span) — zero-copy.
  std::vector<Edge> edges, edges_next;
  bool use_working = false;

  // Blocked parallel sweep calling arc_fn(v, w) for both directions of
  // every non-loop edge of the current round's edge set.
  auto sweep = [&](auto&& arc_fn) {
    if (use_working) {
      util::parallel_for(0, edges.size(), [&](std::size_t i) {
        const Edge& e = edges[i];
        arc_fn(e.u, e.v);
        arc_fn(e.v, e.u);
      });
    } else if (in.csr_backed()) {
      const graph::CsrView& g = in.csr();
      util::parallel_for(0, n, [&](std::size_t u) {
        const VertexId v = static_cast<VertexId>(u);
        for (VertexId w : g.neighbors(v)) {
          if (w != v) arc_fn(v, w);  // each direction appears as its own arc
        }
      });
    } else {
      const auto es = in.edge_span();
      util::parallel_for(0, es.size(), [&](std::size_t i) {
        const Edge& e = es[i];
        if (e.u == e.v) return;
        arc_fn(e.u, e.v);
        arc_fn(e.v, e.u);
      });
    }
  };

  core::CcResult out;
  bool changed = true;
  while (changed) {
    changed = false;
    ++out.stats.rounds;

    // Connect: min-combining offers (COMBINING-min CRCW) via atomic_min —
    // next[t] ends as min(p[t], every offer to t), exactly what the serial
    // sweep computed, for every thread count and sweep order.
    util::parallel_for(0, n, [&](std::size_t v) { next[v] = p[v]; });
    switch (variant.connect) {
      case LtConnect::kDirect:
        // Root v adopts its smallest neighbour.
        sweep([&](VertexId v, VertexId w) {
          if (p[v] == v) util::atomic_min(next[v], w);
        });
        break;
      case LtConnect::kParent:
        sweep([&](VertexId v, VertexId w) {
          util::atomic_min(next[p[v]], p[w]);
        });
        break;
      case LtConnect::kExtended:
        sweep([&](VertexId v, VertexId w) {
          util::atomic_min(next[p[v]], p[w]);
          util::atomic_min(next[p[v]], p[p[w]]);
          util::atomic_min(next[v], p[w]);
        });
        break;
    }
    changed = util::parallel_reduce(
        std::size_t{0}, static_cast<std::size_t>(n), false,
        [&](std::size_t v) { return next[v] != p[v]; },
        [](bool a, bool b) { return a || b; });
    p.swap(next);

    // Shortcut.
    if (variant.shortcut == LtShortcut::kSingle) {
      changed = core::shortcut_step(p, next) || changed;
    } else {
      // Full flatten. Every inner SHORTCUT step is a PRAM step; count each
      // beyond the first so "-F" rounds stay comparable to "-S" rounds
      // (otherwise flatten would hide Θ(log n) work inside one "round").
      bool more = true;
      bool first = true;
      while (more) {
        more = core::shortcut_step(p, next);
        changed = changed || more;
        if (!first && more) ++out.stats.rounds;
        first = false;
      }
    }

    // Alter: blocked parallel emit of the surviving edges, then
    // core::dedup_arcs (which orients each edge u <= v first). Every later
    // round depends only on the edge *set*: connect offers are min-combined
    // (atomic_min), so labels are order-invariant.
    if (variant.alter) {
      if (use_working) {
        util::parallel_emit<Edge>(
            edges.size(), edges_next,
            [&](std::size_t i) -> std::size_t {
              return p[edges[i].u] != p[edges[i].v] ? 1 : 0;
            },
            [&](std::size_t i, Edge* dst) {
              *dst = {p[edges[i].u], p[edges[i].v]};
            });
      } else if (in.csr_backed()) {
        const graph::CsrView& g = in.csr();
        util::parallel_emit<Edge>(
            n, edges_next,
            [&](std::size_t u) -> std::size_t {
              std::size_t c = 0;
              for (VertexId w : graph::csr_suffix(g, static_cast<VertexId>(u)))
                c += p[static_cast<VertexId>(u)] != p[w] ? 1 : 0;
              return c;
            },
            [&](std::size_t u, Edge* dst) {
              for (VertexId w : graph::csr_suffix(g, static_cast<VertexId>(u)))
                if (p[static_cast<VertexId>(u)] != p[w])
                  *dst++ = {p[static_cast<VertexId>(u)], p[w]};
            });
      } else {
        const auto es = in.edge_span();
        util::parallel_emit<Edge>(
            es.size(), edges_next,
            [&](std::size_t i) -> std::size_t {
              return p[es[i].u] != p[es[i].v] ? 1 : 0;
            },
            [&](std::size_t i, Edge* dst) {
              *dst = {p[es[i].u], p[es[i].v]};
            });
      }
      edges.swap(edges_next);
      use_working = true;
      // Deduplicate to keep rounds O(m)-work.
      core::dedup_arcs(edges);
    }

    LOGCC_CHECK_MSG(out.stats.rounds <= 1u << 20,
                    "LT variant failed to converge");
  }

  // The loop exits only after a SHORTCUT that changed nothing, so every
  // tree is flat and the labels are root ids.
  LOGCC_DCHECK(std::all_of(p.begin(), p.end(),
                           [&](VertexId r) { return p[r] == r; }));
  out.labels = std::move(p);
  return out;
}

}  // namespace logcc::baselines
