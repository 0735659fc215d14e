#include "baselines/shiloach_vishkin.hpp"

#include <algorithm>

#include "core/labels.hpp"
#include "util/check.hpp"

namespace logcc::baselines {

using graph::VertexId;

// Synchronous rendering: every step reads the previous step's D (PRAM
// semantics). Sequential in-place updates would cascade along chains within
// one round (acting like path compression) and destroy the Θ(log n) round
// structure the benches measure.
core::CcResult shiloach_vishkin(const graph::ArcsInput& in) {
  const std::uint64_t n = in.num_vertices();
  std::vector<VertexId> d(n), next(n);
  std::vector<std::uint32_t> q(n, 0);
  for (std::uint64_t v = 0; v < n; ++v) d[v] = static_cast<VertexId>(v);

  core::CcResult out;
  bool changed = true;
  std::uint32_t iter = 0;
  while (changed) {
    changed = false;
    ++iter;
    ++out.stats.rounds;

    // Step 1: one synchronous shortcut; stamp the new parent of every vertex
    // that moved (so any height-≥2 tree stamps its root via a grandchild).
    next = d;
    for (std::uint64_t v = 0; v < n; ++v) {
      VertexId dd = d[d[v]];
      if (d[v] != dd) {
        next[v] = dd;
        q[dd] = iter;
        changed = true;
      }
    }
    d.swap(next);

    // Step 2: vertices whose parent is a root hook that root onto a strictly
    // smaller neighbouring label (concurrent writes: last proposal wins —
    // the ARBITRARY resolution). Strictly decreasing labels => acyclic.
    next = d;
    in.for_each_edge([&](VertexId eu, VertexId ev, std::uint32_t) {
      for (int dir = 0; dir < 2; ++dir) {
        VertexId u = dir ? ev : eu;
        VertexId v = dir ? eu : ev;
        if (d[u] == d[d[u]] && d[v] < d[u]) {
          next[d[u]] = d[v];
          q[d[v]] = iter;
          changed = true;
        }
      }
    });
    d.swap(next);

    // Step 3: stagnant trees (untouched this iteration — necessarily stars)
    // hook onto any neighbouring tree. Two adjacent stagnant stars cannot
    // both exist (Step 2 would have fired), so no mutual hooking.
    next = d;
    in.for_each_edge([&](VertexId eu, VertexId ev, std::uint32_t) {
      for (int dir = 0; dir < 2; ++dir) {
        VertexId u = dir ? ev : eu;
        VertexId v = dir ? eu : ev;
        if (d[u] == d[d[u]] && q[d[u]] != iter && d[u] != d[v]) {
          next[d[u]] = d[v];
          changed = true;
        }
      }
    });
    d.swap(next);

    // Step 4: shortcut again.
    changed = core::shortcut_step(d, next) || changed;

    LOGCC_CHECK_MSG(out.stats.rounds <= 4096, "SV failed to converge");
  }

  // The last round's step 4 changed nothing, so every tree is flat and the
  // labels are root ids.
  LOGCC_DCHECK(std::all_of(d.begin(), d.end(),
                           [&](VertexId r) { return d[r] == r; }));
  out.labels = std::move(d);
  return out;
}

}  // namespace logcc::baselines
