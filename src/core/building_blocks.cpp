#include "core/building_blocks.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>

#include "util/arena.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/radix.hpp"
#include "util/random.hpp"
#include "util/scan.hpp"

namespace logcc::core {

namespace {

template <typename V>
std::vector<BasicArc<V>> arcs_from_input_impl(
    const graph::BasicArcsInput<V>& in) {
  using OrigId = typename BasicArc<V>::OrigId;
  LOGCC_CHECK_MSG(in.num_edges() <= std::numeric_limits<OrigId>::max(),
                  "edge count exceeds the orig-index space");
  if (!in.csr_backed()) {
    const auto edges = in.edge_span();
    const std::uint64_t n = in.num_vertices();
    std::vector<BasicArc<V>> arcs(edges.size());
    util::parallel_for(0, edges.size(), [&](std::size_t i) {
      const auto& e = edges[i];
      LOGCC_CHECK(e.u < n && e.v < n);
      arcs[i] = {e.u, e.v, static_cast<OrigId>(i)};
    });
    return arcs;
  }
  // CSR-native scatter over the canonical smaller-endpoint suffixes
  // (graph::csr_suffix_begin — the one definition of the order). The
  // blocked emit assigns each vertex a deterministic output offset, and
  // `orig` is that arc's dense index in the canonical edge order — the
  // same indices edge_list_from_csr would have produced, so spanning-
  // forest results refer to the same edges on both paths.
  const graph::BasicCsrView<V>& v = in.csr();
  std::vector<BasicArc<V>> arcs;
  util::parallel_emit<BasicArc<V>>(
      static_cast<std::size_t>(v.n), arcs,
      [&](std::size_t u) {
        return graph::csr_suffix(v, static_cast<V>(u)).size();
      },
      [&](std::size_t u, BasicArc<V>* dst) {
        OrigId orig = static_cast<OrigId>(dst - arcs.data());
        for (V w : graph::csr_suffix(v, static_cast<V>(u)))
          *dst++ = {static_cast<V>(u), w, orig++};
      });
  return arcs;
}

}  // namespace

std::vector<Arc> arcs_from_input(const graph::ArcsInput& in) {
  return arcs_from_input_impl(in);
}

std::vector<Arc64> arcs_from_input(const graph::ArcsInput64& in) {
  return arcs_from_input_impl(in);
}

template <typename V>
void alter(std::vector<BasicArc<V>>& arcs,
           const BasicParentForest<V>& forest) {
  util::parallel_for(0, arcs.size(), [&](std::size_t i) {
    BasicArc<V>& a = arcs[i];
    a.u = forest.parent(a.u);
    a.v = forest.parent(a.v);
  });
}

template <typename V>
std::uint64_t drop_loops(std::vector<BasicArc<V>>& arcs) {
  return util::parallel_pack(arcs,
                             [](const BasicArc<V>& a) { return a.u != a.v; });
}

template <typename V>
bool has_nonloop(const std::vector<BasicArc<V>>& arcs) {
  const std::size_t n = arcs.size();
  if (n < util::kSerialGrain) {
    for (const BasicArc<V>& a : arcs)
      if (a.u != a.v) return true;
    return false;
  }
  // Blocked OR with early exit: phase loops call this right after
  // drop_loops, so the answer is usually decided by the very first arc —
  // blocks bail as soon as any worker finds a witness.
  const std::size_t blocks = util::scan_block_count(n);
  std::atomic<bool> found{false};
  util::parallel_for_blocks(blocks, [&](std::size_t b) {
    if (found.load(std::memory_order_relaxed)) return;
    const std::size_t hi = util::detail::block_begin(n, blocks, b + 1);
    for (std::size_t i = util::detail::block_begin(n, blocks, b); i < hi;
         ++i) {
      if (arcs[i].u != arcs[i].v) {
        found.store(true, std::memory_order_relaxed);
        return;
      }
    }
  });
  return found.load();
}

void collect_ongoing(const ParentForest& forest, const std::vector<Arc>& arcs,
                     std::vector<std::uint64_t>& first_seen,
                     std::vector<VertexId>& out) {
  first_seen.resize(forest.size(), kUnseenIndex);
  const std::size_t m2 = arcs.size() * 2;
  auto endpoint = [&](std::size_t j) {
    const Arc& a = arcs[j >> 1];
    return (j & 1) ? a.v : a.u;
  };
  // Fetch-min of the directed occurrence index per endpoint, then a stable
  // segmented pack keeping each vertex at its first occurrence — the output
  // is in first-appearance order, exactly what the serial sweep produced.
  util::parallel_for(0, m2, [&](std::size_t j) {
    const Arc& a = arcs[j >> 1];
    if (a.u == a.v) return;
    util::atomic_min(first_seen[endpoint(j)],
                     static_cast<std::uint64_t>(j));
  });
  util::parallel_emit(
      m2, out,
      [&](std::size_t j) -> std::size_t {
        const Arc& a = arcs[j >> 1];
        return (a.u != a.v && first_seen[endpoint(j)] == j) ? 1 : 0;
      },
      [&](std::size_t j, VertexId* dst) {
        VertexId v = endpoint(j);
        LOGCC_DCHECK(forest.is_root(v));
        (void)forest;
        *dst = v;
      });
  // Restore the scratch to all-kUnseenIndex by clearing only touched
  // entries (every written entry appears in `out` exactly once).
  util::parallel_for(0, out.size(),
                     [&](std::size_t i) { first_seen[out[i]] = kUnseenIndex; });
}

std::uint64_t mark_ongoing(std::uint64_t n, const std::vector<Arc>& arcs,
                           std::vector<std::uint8_t>& flags) {
  flags.assign(n, 0);
  util::parallel_for(0, arcs.size(), [&](std::size_t i) {
    const Arc& a = arcs[i];
    if (a.u == a.v) return;
    util::relaxed_store(flags[a.u], std::uint8_t{1});
    util::relaxed_store(flags[a.v], std::uint8_t{1});
  });
  return util::parallel_reduce(
      std::size_t{0}, n, std::uint64_t{0},
      [&](std::size_t v) { return static_cast<std::uint64_t>(flags[v]); },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
}

namespace {

/// (u, v, orig) order: groups undirected duplicates, min orig first.
template <typename V>
bool arc_less(const BasicArc<V>& a, const BasicArc<V>& b) {
  if (a.u != b.u) return a.u < b.u;
  if (a.v != b.v) return a.v < b.v;
  return a.orig < b.orig;
}

template <typename V>
bool arc_same_pair(const BasicArc<V>& a, const BasicArc<V>& b) {
  return a.u == b.u && a.v == b.v;
}

/// Serial dedup path (and the semantics contract for the bucketed path):
/// normalize u <= v, then keep the minimum-orig arc per (u, v) pair.
template <typename V>
void dedup_serial(std::vector<BasicArc<V>>& arcs) {
  std::sort(arcs.begin(), arcs.end(), arc_less<V>);
  arcs.erase(std::unique(arcs.begin(), arcs.end(), arc_same_pair<V>),
             arcs.end());
}

// Arc lists big enough that the bucketed path amortises its two extra
// passes. Chosen by size only — never by thread count or index width — so
// a given input always takes the same path and yields the same output (see
// scan.hpp on the determinism contract).
constexpr std::size_t kDedupBucketCutoff = 4 * util::kSerialGrain;

std::size_t dedup_bucket_count(std::size_t n) {
  std::size_t buckets = 1;
  while (buckets < 256 && buckets * util::kSerialGrain < n) buckets <<= 1;
  return buckets;
}

/// In-bucket sort + unique, in place; returns the surviving count. Large
/// narrow buckets take the radix path: a stable LSD sort on the packed
/// (u, v) key followed by a run scan that keeps the minimum-orig arc per
/// pair — exactly the survivor std::sort(arc_less) + unique kept, so the
/// two paths produce identical contents and the per-bucket size cutoff (a
/// pure function of the input) cannot affect results. Wide ids do not pack
/// into one 64-bit key, so wide buckets always take the comparison sort —
/// with the same output, element for element.
template <typename V>
std::size_t dedup_bucket(BasicArc<V>* a, std::size_t n) {
  if constexpr (sizeof(V) == 4) {
    if (n >= util::kRadixSortCutoff) {
      util::radix_sort_key64(a, n, [](const BasicArc<V>& x) {
        return (static_cast<std::uint64_t>(x.u) << 32) | x.v;
      });
      std::size_t out = 0;
      for (std::size_t i = 0; i < n;) {
        BasicArc<V> best = a[i];
        std::size_t j = i + 1;
        for (; j < n && arc_same_pair(a[j], best); ++j)
          if (a[j].orig < best.orig) best = a[j];
        a[out++] = best;
        i = j;
      }
      return out;
    }
  }
  std::sort(a, a + n, arc_less<V>);
  const BasicArc<V>* end = std::unique(a, a + n, arc_same_pair<V>);
  return static_cast<std::size_t>(end - a);
}

/// Bucket-partitioned dedup: scatter arcs by mix64(u) high bits (all copies
/// of a pair share u after normalization, hence a bucket), sort + unique
/// each bucket independently (dedup_bucket above), then pack the survivors
/// back. Output order is bucket-major — deterministic, but different from
/// the fully sorted serial path, which is why the path choice above keys on
/// size alone. All staging lives in arena scratch (round arena on the
/// dispatcher, lane arenas on workers), so a steady-state round's dedup
/// performs no heap allocation.
template <typename V>
void dedup_bucketed(std::vector<BasicArc<V>>& arcs) {
  const std::size_t n = arcs.size();
  const std::size_t buckets = dedup_bucket_count(n);
  const int shift = 64 - std::countr_zero(buckets);
  util::ScratchBuffer<BasicArc<V>> scattered(n);
  util::ScratchBuffer<std::size_t> bucket_begin(buckets + 1);
  util::parallel_bucket_partition_into(
      arcs.data(), n, scattered.data(), bucket_begin.span(), buckets,
      [shift](const BasicArc<V>& a) {
        return static_cast<std::size_t>(util::mix64(a.u) >> shift);
      });

  // Sort + unique each bucket in place; record surviving sizes.
  util::ScratchBuffer<std::size_t> kept(buckets);
  util::parallel_for_blocks(buckets, [&](std::size_t k) {
    BasicArc<V>* lo = scattered.data() + bucket_begin[k];
    kept[k] = dedup_bucket(lo, bucket_begin[k + 1] - bucket_begin[k]);
  });

  const std::size_t total = util::parallel_prefix_sum(kept.data(), buckets);
  arcs.resize(total);
  util::parallel_for_blocks(buckets, [&](std::size_t k) {
    const BasicArc<V>* src = scattered.data() + bucket_begin[k];
    BasicArc<V>* dst = arcs.data() + kept[k];
    const std::size_t len = (k + 1 < buckets ? kept[k + 1] : total) - kept[k];
    std::copy(src, src + len, dst);
  });
}

}  // namespace

template <typename V>
void dedup_arcs(std::vector<BasicArc<V>>& arcs) {
  util::parallel_for(0, arcs.size(), [&](std::size_t i) {
    BasicArc<V>& a = arcs[i];
    if (a.u > a.v) std::swap(a.u, a.v);
  });
  if (arcs.size() < kDedupBucketCutoff) {
    dedup_serial(arcs);
  } else {
    dedup_bucketed(arcs);
  }
}

template void alter(std::vector<Arc>&, const ParentForest&);
template void alter(std::vector<Arc64>&, const ParentForest64&);
template std::uint64_t drop_loops(std::vector<Arc>&);
template std::uint64_t drop_loops(std::vector<Arc64>&);
template void dedup_arcs(std::vector<Arc>&);
template void dedup_arcs(std::vector<Arc64>&);
template bool has_nonloop(const std::vector<Arc>&);
template bool has_nonloop(const std::vector<Arc64>&);

namespace {

template <typename MarkFn>
std::uint64_t contract_impl(ParentForest& forest, std::vector<Arc>& arcs,
                            RunStats& stats, MarkFn&& mark) {
  // Invariant at the top of every round: trees are flat, arcs connect roots.
  forest.flatten();
  alter(arcs, forest);
  drop_loops(arcs);

  constexpr std::uint32_t kNoArc = static_cast<std::uint32_t>(-1);
  std::vector<std::uint64_t> best;  // (candidate parent << 32) | arc index
  std::uint64_t rounds = 0;
  while (has_nonloop(arcs)) {
    util::scratch_arena_round_reset();
    ++rounds;
    ++stats.phases;
    stats.pram_steps += 3;  // hook, flatten(amortised), alter
    // Every root hooks onto the minimum neighbouring root label (strictly
    // smaller than itself): Boruvka hooking. Local-minima roots survive, so
    // the root count at least halves per component per round. The packed
    // (label, arc) fetch-min keeps the winning arc the lowest-indexed one
    // realising the minimum label — same answer on every thread count.
    const std::uint64_t n = forest.size();
    best.resize(n);
    util::parallel_for(0, n, [&](std::size_t v) {
      best[v] = (static_cast<std::uint64_t>(v) << 32) | kNoArc;
    });
    util::parallel_for(0, arcs.size(), [&](std::size_t i) {
      const Arc& a = arcs[i];
      if (a.u == a.v) return;
      util::atomic_min(best[a.u], (static_cast<std::uint64_t>(a.v) << 32) |
                                      static_cast<std::uint32_t>(i));
      util::atomic_min(best[a.v], (static_cast<std::uint64_t>(a.u) << 32) |
                                      static_cast<std::uint32_t>(i));
    });
    util::parallel_for(0, n, [&](std::size_t v) {
      const VertexId target = static_cast<VertexId>(best[v] >> 32);
      if (target < v && forest.is_root(static_cast<VertexId>(v))) {
        forest.set_parent(static_cast<VertexId>(v), target);
        mark(arcs[static_cast<std::uint32_t>(best[v])]);
      }
    });
    forest.flatten();
    alter(arcs, forest);
    drop_loops(arcs);
    dedup_arcs(arcs);
    LOGCC_CHECK_MSG(rounds <= 4096, "deterministic contract diverged");
  }
  return rounds;
}

}  // namespace

std::uint64_t deterministic_contract(ParentForest& forest,
                                     std::vector<Arc>& arcs, RunStats& stats) {
  return contract_impl(forest, arcs, stats, [](const Arc&) {});
}

std::uint64_t deterministic_contract_sf(ParentForest& forest,
                                        std::vector<Arc>& arcs,
                                        std::vector<std::uint8_t>& in_forest,
                                        RunStats& stats) {
  return contract_impl(forest, arcs, stats,
                       [&](const Arc& a) { in_forest[a.orig] = 1; });
}

}  // namespace logcc::core
