#include "core/faster_cc.hpp"

#include <algorithm>
#include <unordered_map>

#include "core/compact.hpp"
#include "core/expand_maxlink.hpp"
#include "core/round_arena.hpp"
#include "core/vanilla.hpp"
#include "util/arena.hpp"
#include "util/bitutil.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

namespace logcc::core {

CcResult faster_cc(const graph::ArcsInput& in, const FasterCcParams& params) {
  CcResult out;
  RoundArena round_arena;
  RoundArena::Scope arena_scope(round_arena);
  const std::uint64_t n = in.num_vertices();

  // ---- COMPACT: PREPARE + renaming.
  CompactParams cp;
  cp.seed = params.seed;
  cp.target_density = params.prepare_target_density;
  cp.prepare_max_phases = params.prepare_max_phases;
  CompactResult comp = compact(in, cp);
  out.stats.absorb(comp.stats);

  if (comp.n_compact == 0) {
    comp.outer.flatten();
    out.labels = comp.outer.root_labels();
    return out;
  }

  // ---- Main loop on the compact graph.
  const std::uint64_t m0 = std::max<std::uint64_t>(comp.arcs.size(), 1);
  ParamPolicy policy =
      params.policy_override.has_value()
          ? *params.policy_override
          : (params.policy == ParamPolicy::Kind::kPaper
                 ? ParamPolicy::paper(comp.n_compact, m0)
                 : ParamPolicy::practical(comp.n_compact, m0));

  ExpandMaxlink engine(comp.n_compact, comp.arcs, comp.exists, policy,
                       util::mix64(params.seed, 0xFA57), out.stats);

  std::uint64_t max_rounds = params.max_rounds;
  if (max_rounds == 0) {
    max_rounds = 4 * (util::ceil_log2(std::max<std::uint64_t>(n, 4)) +
                      static_cast<std::uint64_t>(util::loglog_density(n, m0))) +
                 32;
  }

  bool broke = false;
  for (std::uint64_t r = 0; r < max_rounds; ++r) {
    util::scratch_arena_round_reset();
    if (engine.round()) {
      broke = true;
      break;
    }
  }

  // ---- Postprocess: the remaining graph has diameter ≤ 1 and flat trees
  // (when `broke`); Theorem 1 finishes it in O(log log) time. If the round
  // budget ran out instead, Theorem-1's own guards (and ultimately the
  // deterministic finisher) still guarantee a correct answer.
  {
    // Re-establish the flat-trees/arcs-on-roots invariant the phase loop
    // expects (already true when `broke`, needed when the budget ran out).
    engine.forest().flatten();
    std::vector<Arc> rest = engine.remaining_arcs();
    alter(rest, engine.forest());
    drop_loops(rest);
    dedup_arcs(rest);
    Theorem1Params t1 = params.postprocess;
    t1.seed = util::mix64(params.seed, 0x7E0);
    if (!broke) out.stats.finisher_used = true;
    theorem1_phases(engine.forest(), rest, m0, t1, out.stats);
  }
  engine.forest().flatten();

  // ---- Map compact labels back to original ids (read-only over both
  // forests, so a data-parallel map).
  comp.outer.flatten();
  out.labels.resize(n);
  util::parallel_for(0, n, [&](std::size_t v) {
    VertexId r = comp.outer.find_root(static_cast<VertexId>(v));
    std::uint32_t cid = comp.renamed_of[r];
    if (cid == CompactResult::kInvalid) {
      out.labels[v] = r;
    } else {
      VertexId croot = engine.forest().find_root(static_cast<VertexId>(cid));
      VertexId orig = comp.orig_of[croot];
      LOGCC_CHECK(orig != graph::kInvalidVertex);
      out.labels[v] = orig;
    }
  });
  return out;
}

// ------------------------------------------------- wide (64-bit) bridge ---

namespace {

/// Delegate branch: the whole input fits the 32-bit space, so narrow it and
/// run the narrow faster_cc (bit-identical to a native narrow run), then
/// widen the labels.
CcResult64 faster_delegate(const graph::ArcsInput64& in,
                           const FasterCcParams& params) {
  CcResult narrow;
  if (in.csr_backed()) {
    const graph::CsrView64& wv = in.csr();
    std::vector<VertexId> adj(wv.num_arcs());
    util::parallel_for(0, adj.size(), [&](std::size_t i) {
      adj[i] = static_cast<VertexId>(wv.adj[i]);
    });
    graph::CsrView nv;
    nv.n = wv.n;
    nv.edges = wv.edges;
    nv.offsets = wv.offsets;  // offsets are uint64 at both widths
    nv.adj = adj.data();
    narrow = faster_cc(graph::ArcsInput::from_csr(nv), params);
  } else {
    const auto wide = in.edge_span();
    std::vector<graph::Edge> edges(wide.size());
    util::parallel_for(0, edges.size(), [&](std::size_t i) {
      edges[i] = {static_cast<VertexId>(wide[i].u),
                  static_cast<VertexId>(wide[i].v)};
    });
    narrow = faster_cc(graph::ArcsInput::from_edges(in.num_vertices(), edges),
                       params);
  }
  CcResult64 out;
  out.stats = std::move(narrow.stats);
  out.labels.assign(narrow.labels.begin(), narrow.labels.end());
  return out;
}

}  // namespace

CcResult64 faster_cc(const graph::ArcsInput64& in,
                     const FasterCcParams& params,
                     std::uint64_t narrow_threshold) {
  const std::uint64_t cap = std::min<std::uint64_t>(
      narrow_threshold, std::numeric_limits<std::uint32_t>::max());
  if (in.num_vertices() <= cap && in.num_edges() <= cap)
    return faster_delegate(in, params);

  // Contract-then-delegate: wide Vanilla phases shrink the live arc list;
  // once it fits the 32-bit space the survivors are renamed dense and the
  // narrow faster-cc finishes the job.
  CcResult64 out;
  RoundArena round_arena;
  RoundArena::Scope arena_scope(round_arena);
  ParentForest64 forest(in.num_vertices());
  std::vector<Arc64> arcs = arcs_from_input(in);
  drop_loops(arcs);
  dedup_arcs(arcs);
  // Each Vanilla phase removes (in expectation) a constant fraction of live
  // vertices, so this terminates in O(log n) phases; the cap/2 slack keeps
  // the renamed vertex count (<= 2 * arcs) within the 32-bit space. The
  // coins are COMPACT's PREPARE coins; only the stop rule differs.
  const std::uint64_t arc_target = std::max<std::uint64_t>(cap / 2, 1);
  PrepareRule coins;
  coins.seed = params.seed;
  coins.salt = 0xC0DE00;
  const VanillaSchedule<VertexId64> schedule{
      [&](std::uint64_t p) { return coins.coin_seed(p); },
      [&](std::uint64_t, const std::vector<Arc64>& live) {
        return live.size() <= arc_target;
      }};
  out.stats.phases += vanilla_loop(forest, arcs, schedule, out.stats);
  forest.flatten();

  // Rename surviving endpoints in first-appearance order (deterministic:
  // the arc list order is execution-independent).
  std::unordered_map<VertexId64, VertexId> rename;
  std::vector<VertexId64> orig_of;
  rename.reserve(arcs.size() * 2);
  graph::EdgeList contracted;
  contracted.edges.reserve(arcs.size());
  auto id_of = [&](VertexId64 v) {
    auto [it, inserted] =
        rename.try_emplace(v, static_cast<VertexId>(orig_of.size()));
    if (inserted) orig_of.push_back(v);
    return it->second;
  };
  for (const Arc64& a : arcs) {
    if (a.u == a.v) continue;
    const VertexId u = id_of(a.u);
    const VertexId v = id_of(a.v);
    contracted.add(u, v);
  }
  contracted.n = orig_of.size();

  std::vector<VertexId> narrow_labels;
  if (!contracted.edges.empty()) {
    CcResult fin = faster_cc(contracted, params);
    out.stats.absorb(fin.stats);
    narrow_labels = std::move(fin.labels);
  }

  // Map back: a vertex whose root survived into the contracted graph takes
  // its component's faster-cc representative (translated to the wide id
  // space); a fully contracted component keeps its root.
  out.labels.resize(in.num_vertices());
  util::parallel_for(0, in.num_vertices(), [&](std::size_t v) {
    const VertexId64 r = forest.find_root(static_cast<VertexId64>(v));
    auto it = rename.find(r);
    out.labels[v] = it == rename.end() ? r : orig_of[narrow_labels[it->second]];
  });
  return out;
}

}  // namespace logcc::core
