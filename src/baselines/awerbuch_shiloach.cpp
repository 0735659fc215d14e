#include "baselines/awerbuch_shiloach.hpp"

#include <algorithm>

#include "core/labels.hpp"
#include "util/check.hpp"

namespace logcc::baselines {

using graph::VertexId;

namespace {

/// Star test: st[v] == true iff v's tree is a star. The classic 3-substep
/// CRCW routine, each substep synchronous.
void star_detect(const std::vector<VertexId>& d, std::vector<char>& st,
                 std::vector<char>& scratch) {
  const std::size_t n = d.size();
  st.assign(n, 1);
  for (std::size_t v = 0; v < n; ++v) {
    VertexId dd = d[d[v]];
    if (d[v] != dd) {
      st[v] = 0;
      st[dd] = 0;
    }
  }
  // st(v) := st(v) AND st(D(v)) — the AND keeps the own-flag a depth-2
  // vertex set in the previous substep (plain copy-from-parent would
  // overwrite it with the parent's stale value and mis-classify non-star
  // trees, enabling cycle-creating hooks).
  scratch.resize(n);
  for (std::size_t v = 0; v < n; ++v) scratch[v] = st[v] && st[d[v]];
  st.swap(scratch);
}

}  // namespace

// Synchronous rendering (see shiloach_vishkin.cpp for why).
core::CcResult awerbuch_shiloach(const graph::ArcsInput& in) {
  const std::uint64_t n = in.num_vertices();
  std::vector<VertexId> d(n), next(n);
  for (std::uint64_t v = 0; v < n; ++v) d[v] = static_cast<VertexId>(v);
  std::vector<char> st, scratch;

  core::CcResult out;
  bool changed = true;
  while (changed) {
    changed = false;
    ++out.stats.rounds;

    // (1) star roots hook onto strictly smaller neighbour labels.
    star_detect(d, st, scratch);
    next = d;
    in.for_each_edge([&](VertexId eu, VertexId ev, std::uint32_t) {
      for (int dir = 0; dir < 2; ++dir) {
        VertexId u = dir ? ev : eu;
        VertexId v = dir ? eu : ev;
        if (st[u] && d[v] < d[u]) {
          next[d[u]] = d[v];
          changed = true;
        }
      }
    });
    d.swap(next);

    // (2) trees that are *still* stars hook onto any neighbouring tree.
    // After re-detection two adjacent stars cannot both remain (step 1
    // would have hooked the larger), so no mutual hooking.
    star_detect(d, st, scratch);
    next = d;
    in.for_each_edge([&](VertexId eu, VertexId ev, std::uint32_t) {
      for (int dir = 0; dir < 2; ++dir) {
        VertexId u = dir ? ev : eu;
        VertexId v = dir ? eu : ev;
        if (st[u] && d[v] != d[u]) {
          next[d[u]] = d[v];
          changed = true;
        }
      }
    });
    d.swap(next);

    // (3) shortcut.
    changed = core::shortcut_step(d, next) || changed;

    LOGCC_CHECK_MSG(out.stats.rounds <= 4096, "AS failed to converge");
  }

  // The last round's shortcut changed nothing: every tree is flat.
  LOGCC_DCHECK(std::all_of(d.begin(), d.end(),
                           [&](VertexId r) { return d[r] == r; }));
  out.labels = std::move(d);
  return out;
}

}  // namespace logcc::baselines
