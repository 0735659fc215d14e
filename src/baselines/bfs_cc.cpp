#include "baselines/bfs_cc.hpp"

#include "graph/graph_algos.hpp"

namespace logcc::baselines {

BaselineResult bfs_cc(const graph::ArcsInput& in) {
  BaselineResult out;
  out.rounds = 1;
  if (in.csr_backed()) {
    out.labels = graph::bfs_components(in.csr());
  } else {
    out.labels = graph::bfs_components(
        graph::Graph::from_edges(in.num_vertices(), in.edge_span()));
  }
  return out;
}

}  // namespace logcc::baselines
