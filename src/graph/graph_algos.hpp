// Sequential graph oracles: the ground truth every parallel algorithm is
// validated against, plus diameter measurement used to parameterise the
// log-diameter experiments.
//
// Everything here is single-threaded and deterministic — these functions
// sit *outside* the determinism contract's parallel machinery on purpose,
// so a contract violation in the parallel kernels cannot mask itself by
// corrupting its own oracle. Label-vector arguments must have exactly n
// entries (one per vertex of the graph they describe).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/arcs_input.hpp"
#include "graph/graph.hpp"

namespace logcc::graph {

/// Connected components by BFS. Returns, for each vertex, the *minimum vertex
/// id* in its component — the canonical labeling all algorithms are compared
/// through. The CsrView overload is the implementation (it runs zero-copy
/// over mmap'd datasets); the Graph overload forwards through csr_view.
std::vector<VertexId> bfs_components(const CsrView& v);
std::vector<VertexId> bfs_components(const Graph& g);

/// Number of distinct components given any labeling.
std::uint64_t count_components(const std::vector<VertexId>& labels);

/// True iff the two labelings induce the same partition of [0, n).
bool same_partition(const std::vector<VertexId>& a,
                    const std::vector<VertexId>& b);

/// Canonicalises a labeling to min-id-per-component form (for direct
/// comparison against bfs_components) — execution- and algorithm-
/// independent, the form ComponentIndex publishes. One overload per index
/// width.
std::vector<VertexId> canonical_labels(const std::vector<VertexId>& labels);
std::vector<VertexId64> canonical_labels(
    const std::vector<VertexId64>& labels);

/// Eccentricity of `source` within its component (longest BFS distance).
std::uint64_t eccentricity(const Graph& g, VertexId source);

/// Maximum component diameter, exact (one BFS per vertex — small graphs only).
std::uint64_t exact_max_diameter(const Graph& g);

/// Double-sweep lower bound on the max component diameter: BFS from an
/// arbitrary vertex per component, then BFS from the farthest vertex found.
/// Exact on trees; a good estimate elsewhere. O(n + m).
std::uint64_t pseudo_diameter(const Graph& g);

struct ForestCheck {
  bool ok = false;
  std::string error;  // empty when ok
};

/// Validates that `forest_edges` (indices into `el.edges`) forms a spanning
/// forest of `el`: acyclic, spans every component (|F| = n - #components),
/// and connects only vertices of the same component. Precondition: every
/// index < el.edges.size(). On failure `error` names the first violated
/// property.
ForestCheck validate_spanning_forest(const EdgeList& el,
                                     const std::vector<std::uint64_t>& forest_edges);

/// Component size histogram (sorted descending).
std::vector<std::uint64_t> component_sizes(const std::vector<VertexId>& labels);

}  // namespace logcc::graph
