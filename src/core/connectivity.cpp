#include "core/connectivity.hpp"

#include "baselines/awerbuch_shiloach.hpp"
#include "baselines/bfs_cc.hpp"
#include "baselines/label_propagation.hpp"
#include "baselines/shiloach_vishkin.hpp"
#include "baselines/union_find.hpp"
#include "core/round_arena.hpp"
#include "core/vanilla.hpp"
#include "graph/graph_algos.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace logcc {

const std::vector<Algorithm>& all_algorithms() {
  static const std::vector<Algorithm> kAll = {
      Algorithm::kFasterCC,   Algorithm::kTheorem1,
      Algorithm::kVanilla,    Algorithm::kShiloachVishkin,
      Algorithm::kAwerbuchShiloach, Algorithm::kLabelProp,
      Algorithm::kLiuTarjan,  Algorithm::kUnionFind,
      Algorithm::kBFS};
  return kAll;
}

const char* to_string(Algorithm a) {
  switch (a) {
    case Algorithm::kFasterCC: return "faster-cc";
    case Algorithm::kTheorem1: return "theorem1";
    case Algorithm::kVanilla: return "vanilla";
    case Algorithm::kShiloachVishkin: return "sv";
    case Algorithm::kAwerbuchShiloach: return "as";
    case Algorithm::kLabelProp: return "label-prop";
    case Algorithm::kLiuTarjan: return "liu-tarjan";
    case Algorithm::kUnionFind: return "union-find";
    case Algorithm::kBFS: return "bfs";
  }
  return "?";
}

std::optional<Algorithm> algorithm_from_string(const std::string& name) {
  for (Algorithm a : all_algorithms())
    if (name == to_string(a)) return a;
  return std::nullopt;
}

namespace {

/// One call per algorithm, every one returning core::CcResult.
core::CcResult run_cc(const graph::ArcsInput& in, Algorithm algorithm,
                      const Options& options) {
  switch (algorithm) {
    case Algorithm::kFasterCC: {
      core::FasterCcParams p = options.faster;
      p.seed = options.seed;
      return core::faster_cc(in, p);
    }
    case Algorithm::kTheorem1:
      return core::theorem1_cc(in, {.seed = options.seed});
    case Algorithm::kVanilla: return core::vanilla_cc(in, options.seed);
    case Algorithm::kShiloachVishkin: return baselines::shiloach_vishkin(in);
    case Algorithm::kAwerbuchShiloach: return baselines::awerbuch_shiloach(in);
    case Algorithm::kLabelProp: return baselines::label_propagation(in);
    case Algorithm::kLiuTarjan: return baselines::liu_tarjan(in);
    case Algorithm::kUnionFind: return baselines::union_find_cc(in);
    case Algorithm::kBFS: return baselines::bfs_cc(in);
  }
  LOGCC_CHECK_MSG(false, "unknown Algorithm");
}

core::SfResult run_sf(const graph::ArcsInput& in, SfAlgorithm algorithm,
                      const Options& options) {
  switch (algorithm) {
    case SfAlgorithm::kTheorem2:
      return core::theorem2_sf(in, {.seed = options.seed});
    case SfAlgorithm::kVanillaSF: return core::vanilla_sf(in, options.seed);
  }
  LOGCC_CHECK_MSG(false, "unknown SfAlgorithm");
}

}  // namespace

ComponentsResult connected_components(const graph::ArcsInput& in,
                                      Algorithm algorithm,
                                      const Options& options) {
  ComponentsResult out;
  // One round-scratch arena for the whole run: the paper drivers install
  // their own (inner scopes no-op), and the round-loop baselines get the
  // same steady-state zero-allocation behaviour through this one.
  core::RoundArena round_arena;
  core::RoundArena::Scope arena_scope(round_arena);
  util::Timer timer;
  core::CcResult r = run_cc(in, algorithm, options);
  out.stats = std::move(r.stats);
  // Canonicalize + sizes + count in one snapshot build — every algorithm
  // exits through the same ComponentIndex vocabulary.
  out.index = core::ComponentIndex::from_labels(std::move(r.labels));
  out.seconds = timer.seconds();
  return out;
}

ForestResult spanning_forest(const graph::ArcsInput& in, SfAlgorithm algorithm,
                             const Options& options) {
  ForestResult out;
  core::RoundArena round_arena;
  core::RoundArena::Scope arena_scope(round_arena);
  util::Timer timer;
  core::SfResult r = run_sf(in, algorithm, options);
  out.forest_edges = std::move(r.forest_edges);
  out.stats = std::move(r.stats);
  out.seconds = timer.seconds();
  return out;
}

bool verify_components(const graph::ArcsInput& in,
                       const core::ComponentIndex& index) {
  const std::uint64_t n = in.num_vertices();
  const std::vector<graph::VertexId>& labels = index.labels();
  if (labels.size() != n) return false;
  // (1) Edges never cross label classes. for_each_edge has no break, so
  // after the first violation the sweep degrades to a no-op per edge
  // rather than re-reading labels for the rest of a large dataset.
  bool edges_ok = true;
  in.for_each_edge([&](graph::VertexId u, graph::VertexId v, std::uint32_t) {
    if (!edges_ok) return;
    if (u >= n || v >= n || labels[u] != labels[v]) edges_ok = false;
  });
  if (!edges_ok) return false;
  // (2) Label classes are not coarser than the true partition, and the
  // index's count and per-component sizes are the truth: recompute both
  // with union-find (no shared code with the PRAM algorithms) in the same
  // O(m α(n)) pass and compare.
  baselines::DisjointSets ds(n);
  in.for_each_edge([&](graph::VertexId u, graph::VertexId v, std::uint32_t) {
    ds.unite(u, v);
  });
  if (index.num_components() != ds.num_sets()) return false;
  std::vector<std::uint64_t> uf_size(n, 0);
  for (std::uint64_t v = 0; v < n; ++v) ++uf_size[ds.find(graph::VertexId(v))];
  for (std::uint64_t v = 0; v < n; ++v) {
    if (index.component_size(graph::VertexId(v)) !=
        uf_size[ds.find(graph::VertexId(v))])
      return false;
  }
  return true;
}

}  // namespace logcc
