// EdgeLog: the live graph of the serve layer — an append-only undirected
// edge store over a fixed vertex universe [0, n).
//
// The incremental engine grows it one batch at a time and, on rebuild
// epochs, hands the accumulated edges to the batch algorithms as an
// ArcsInput view. Storage is one contiguous vector so the view is a plain
// span; append() may reallocate, so any previously taken input() views are
// invalidated by growth (the engine only takes a view inside a rebuild,
// never across batches — the serving layer's ownership rule).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/arcs_input.hpp"
#include "graph/graph.hpp"
#include "util/check.hpp"

namespace logcc::graph {

class EdgeLog {
 public:
  explicit EdgeLog(std::uint64_t n) : n_(n) {}

  std::uint64_t num_vertices() const { return n_; }
  std::uint64_t num_edges() const { return edges_.size(); }
  std::uint64_t num_batches() const { return batches_; }

  /// Appends one batch. Endpoints must be < n (LOGCC_CHECK — the serve
  /// layer validates at the boundary so algorithms never see a bad id).
  void append(std::span<const Edge> batch) {
    for (const Edge& e : batch)
      LOGCC_CHECK_MSG(e.u < n_ && e.v < n_, "EdgeLog: endpoint out of range");
    edges_.insert(edges_.end(), batch.begin(), batch.end());
    ++batches_;
  }

  /// Bytes held by the edge storage (capacity, not size).
  std::uint64_t memory_bytes() const {
    return edges_.capacity() * sizeof(Edge);
  }

  /// All accumulated edges, in arrival order.
  std::span<const Edge> edges() const { return edges_; }

  /// Non-owning algorithm input over the accumulated edges. Valid until the
  /// next append() (growth may reallocate the backing vector).
  ArcsInput input() const { return ArcsInput::from_edges(n_, edges_); }

 private:
  std::uint64_t n_ = 0;
  std::vector<Edge> edges_;
  std::uint64_t batches_ = 0;
};

}  // namespace logcc::graph
