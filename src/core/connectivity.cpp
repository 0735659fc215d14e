#include "core/connectivity.hpp"

#include "baselines/awerbuch_shiloach.hpp"
#include "baselines/bfs_cc.hpp"
#include "baselines/label_propagation.hpp"
#include "baselines/shiloach_vishkin.hpp"
#include "baselines/union_find.hpp"
#include "core/round_arena.hpp"
#include "core/vanilla.hpp"
#include "graph/graph_algos.hpp"
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

ComponentsResult connected_components(const graph::ArcsInput& in,
                                      Algorithm algorithm,
                                      const Options& options) {
  ComponentsResult out;
  std::vector<graph::VertexId> labels;
  // One round-scratch arena for the whole run: the paper drivers install
  // their own (inner scopes no-op), and the round-loop baselines get the
  // same steady-state zero-allocation behaviour through this one.
  core::RoundArena round_arena;
  core::RoundArena::Scope arena_scope(round_arena);
  util::Timer timer;
  switch (algorithm) {
    case Algorithm::kFasterCC: {
      core::FasterCcParams p = options.faster;
      p.seed = options.seed;
      p.policy = options.policy;
      auto r = core::faster_cc(in, p);
      labels = std::move(r.labels);
      out.stats = r.stats;
      break;
    }
    case Algorithm::kTheorem1: {
      core::Theorem1Params p =
          options.policy == core::ParamPolicy::Kind::kPaper
              ? core::Theorem1Params::paper(in.num_vertices(), in.num_edges())
              : options.theorem1;
      p.seed = options.seed;
      auto r = core::theorem1_cc(in, p);
      labels = std::move(r.labels);
      out.stats = r.stats;
      break;
    }
    case Algorithm::kVanilla: {
      auto r = core::vanilla_cc(in, options.seed);
      labels = std::move(r.labels);
      out.stats = r.stats;
      break;
    }
    case Algorithm::kShiloachVishkin: {
      auto r = baselines::shiloach_vishkin(in);
      labels = std::move(r.labels);
      out.stats.rounds = r.rounds;
      break;
    }
    case Algorithm::kAwerbuchShiloach: {
      auto r = baselines::awerbuch_shiloach(in);
      labels = std::move(r.labels);
      out.stats.rounds = r.rounds;
      break;
    }
    case Algorithm::kLabelProp: {
      auto r = baselines::label_propagation(in);
      labels = std::move(r.labels);
      out.stats.rounds = r.rounds;
      break;
    }
    case Algorithm::kLiuTarjan: {
      auto r = baselines::liu_tarjan(in);
      labels = std::move(r.labels);
      out.stats.rounds = r.rounds;
      break;
    }
    case Algorithm::kUnionFind: {
      auto r = baselines::union_find_cc(in);
      labels = std::move(r.labels);
      out.stats.rounds = r.rounds;
      break;
    }
    case Algorithm::kBFS: {
      auto r = baselines::bfs_cc(in);
      labels = std::move(r.labels);
      out.stats.rounds = r.rounds;
      break;
    }
  }
  // Canonicalize + sizes + count in one snapshot build — every algorithm
  // exits through the same ComponentIndex vocabulary.
  out.index = core::ComponentIndex::from_labels(std::move(labels));
  out.seconds = timer.seconds();
  return out;
}

ForestResult spanning_forest(const graph::ArcsInput& in, SfAlgorithm algorithm,
                             const Options& options) {
  ForestResult out;
  core::RoundArena round_arena;
  core::RoundArena::Scope arena_scope(round_arena);
  util::Timer timer;
  switch (algorithm) {
    case SfAlgorithm::kTheorem2: {
      core::SpanningForestParams p = options.theorem1;
      p.seed = options.seed;
      auto r = core::theorem2_sf(in, p);
      out.forest_edges = std::move(r.forest_edges);
      out.stats = r.stats;
      break;
    }
    case SfAlgorithm::kVanillaSF: {
      auto r = core::vanilla_sf(in, options.seed);
      out.forest_edges = std::move(r.forest_edges);
      out.stats = r.stats;
      break;
    }
  }
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

bool verify_components(const graph::ArcsInput& in,
                       const std::vector<graph::VertexId>& labels) {
  if (labels.size() != in.num_vertices()) return false;
  return verify_components(in, core::ComponentIndex::from_labels(labels));
}

}  // namespace logcc
