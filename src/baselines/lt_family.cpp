#include "baselines/lt_family.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "core/labels.hpp"
#include "util/arena.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/radix.hpp"
#include "util/random.hpp"
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

namespace {

/// Edge lists big enough that the bucketed dedup amortises its partition
/// passes. Chosen by size only — never by thread count — so a given input
/// always takes the same path (see scan.hpp on the determinism contract).
constexpr std::size_t kAlterDedupCutoff = 4 * util::kSerialGrain;

bool edge_less(const Edge& a, const Edge& b) {
  return a.u != b.u ? a.u < b.u : a.v < b.v;
}

/// ALTER dedup. Small lists: serial sort + unique (the historical path).
/// Large lists: partition into buckets by mixed high bits of u (equal
/// edges share u, hence a bucket), radix-sort + unique each bucket on a
/// worker lane, pack survivors back. Output order is bucket-major —
/// different from the fully sorted serial path, but deterministic, and
/// every later round depends only on the edge *set*: connect offers are
/// min-combined (atomic_min), so labels are order-invariant. Staging is
/// arena scratch (round arena on the dispatcher, lane arenas on workers).
void dedup_edges(std::vector<Edge>& edges) {
  const std::size_t n = edges.size();
  if (n < kAlterDedupCutoff) {
    std::sort(edges.begin(), edges.end(), edge_less);
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    return;
  }
  std::size_t buckets = 1;
  while (buckets < 256 && buckets * util::kSerialGrain < n) buckets <<= 1;
  const int shift = 64 - std::countr_zero(buckets);
  util::ScratchBuffer<Edge> scattered(n);
  util::ScratchBuffer<std::size_t> bucket_begin(buckets + 1);
  util::parallel_bucket_partition_into(
      edges.data(), n, scattered.data(), bucket_begin.span(), buckets,
      [shift](const Edge& e) {
        return static_cast<std::size_t>(util::mix64(e.u) >> shift);
      });
  util::ScratchBuffer<std::size_t> kept(buckets);
  util::parallel_for_blocks(buckets, [&](std::size_t k) {
    Edge* lo = scattered.data() + bucket_begin[k];
    const std::size_t len = bucket_begin[k + 1] - bucket_begin[k];
    if (len < util::kRadixSortCutoff) {
      std::sort(lo, lo + len, edge_less);
      kept[k] = static_cast<std::size_t>(std::unique(lo, lo + len) - lo);
    } else {
      util::radix_sort_key64(lo, len, [](const Edge& e) {
        return (static_cast<std::uint64_t>(e.u) << 32) | e.v;
      });
      kept[k] = static_cast<std::size_t>(std::unique(lo, lo + len) - lo);
    }
  });
  // Pack surviving bucket prefixes back into the caller's vector.
  std::size_t total = 0;
  util::ScratchBuffer<std::size_t> out_begin(buckets);
  for (std::size_t k = 0; k < buckets; ++k) {
    out_begin[k] = total;
    total += kept[k];
  }
  edges.resize(total);
  util::parallel_for_blocks(buckets, [&](std::size_t k) {
    std::copy_n(scattered.data() + bucket_begin[k], kept[k],
                edges.data() + out_begin[k]);
  });
}

}  // namespace

BaselineResult liu_tarjan_variant(const graph::ArcsInput& in,
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

  BaselineResult out;
  bool changed = true;
  while (changed) {
    changed = false;
    ++out.rounds;

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
        if (!first && more) ++out.rounds;
        first = false;
      }
    }

    // Alter: blocked parallel emit of the surviving normalized edges, then
    // sort + unique — the resulting edge *set* (what every later round
    // depends on) matches the historical serial path exactly.
    if (variant.alter) {
      auto normalized = [&](VertexId a, VertexId b) -> Edge {
        return a <= b ? Edge{a, b} : Edge{b, a};
      };
      if (use_working) {
        util::parallel_emit<Edge>(
            edges.size(), edges_next,
            [&](std::size_t i) -> std::size_t {
              return p[edges[i].u] != p[edges[i].v] ? 1 : 0;
            },
            [&](std::size_t i, Edge* dst) {
              *dst = normalized(p[edges[i].u], p[edges[i].v]);
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
                  *dst++ = normalized(p[static_cast<VertexId>(u)], p[w]);
            });
      } else {
        const auto es = in.edge_span();
        util::parallel_emit<Edge>(
            es.size(), edges_next,
            [&](std::size_t i) -> std::size_t {
              return p[es[i].u] != p[es[i].v] ? 1 : 0;
            },
            [&](std::size_t i, Edge* dst) {
              *dst = normalized(p[es[i].u], p[es[i].v]);
            });
      }
      edges.swap(edges_next);
      use_working = true;
      // Deduplicate to keep rounds O(m)-work (bucketed radix when large).
      dedup_edges(edges);
    }

    LOGCC_CHECK_MSG(out.rounds <= 1u << 20,
                    "LT variant failed to converge");
  }

  // Labels only decrease and connects always offer values within the
  // component, so the fixpoint is flat per component; flatten defensively.
  for (std::uint64_t v = 0; v < n; ++v) {
    VertexId r = p[v];
    std::uint64_t guard = 0;
    while (p[r] != r) {
      r = p[r];
      LOGCC_CHECK_MSG(++guard <= n, "cycle in LT parent forest");
    }
    p[v] = r;
  }
  out.labels = std::move(p);
  return out;
}

}  // namespace logcc::baselines
