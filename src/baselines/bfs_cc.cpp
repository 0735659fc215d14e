#include "baselines/bfs_cc.hpp"

#include "graph/graph_algos.hpp"

namespace logcc::baselines {

core::CcResult bfs_cc(const graph::ArcsInput& in) {
  core::CcResult out;
  out.stats.rounds = 1;
  if (in.csr_backed()) {
    out.labels = graph::bfs_components(in.csr());
  } else {
    out.labels = graph::bfs_components(
        graph::Graph::from_edges(in.num_vertices(), in.edge_span()));
  }
  return out;
}

}  // namespace logcc::baselines
