// ComponentIndex: the one connectivity-result vocabulary of the repo.
//
// Every entry point that answers "which component?" — the 9 batch
// algorithms behind logcc::connected_components, the incremental
// serve::ConnectivityEngine, and the bench certificate path — produces (or
// publishes) exactly this type: canonical min-id labels, per-component
// sizes, and the component count, all computed in one deterministic
// parallel pass.
//
// An index is an immutable *snapshot*: once built it is never mutated, so a
// std::shared_ptr<const ComponentIndex> can be handed to any number of
// query threads and swapped atomically between epochs (util/epoch.hpp) —
// readers keep a consistent view for as long as they hold the pointer,
// regardless of what the producer does next.
//
// Canonical form: labels[v] is the minimum vertex id in v's component;
// hence labels[r] == r exactly for component roots, labels[v] <= v
// everywhere, and two indexes over the same graph compare equal bit for
// bit. sizes() is indexed by root label (0 at non-roots), giving O(1)
// component_size(v) without a side lookup structure.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace logcc::core {

class ComponentIndex {
 public:
  ComponentIndex() = default;

  /// Builds from any labeling (equal label iff same component):
  /// canonicalizes to min-id form, then counts components and per-component
  /// sizes in one parallel pass. Deterministic for every thread count and
  /// backend.
  static ComponentIndex from_labels(std::vector<graph::VertexId> labels);

  /// Builds from labels already in canonical min-id form (what the
  /// algorithms' canonical_labels pass and the serve engine's flat forest
  /// produce), skipping re-canonicalization. Canonicity is LOGCC_CHECKed
  /// (labels[v] <= v and labels[labels[v]] == labels[v]).
  static ComponentIndex from_canonical_labels(
      std::vector<graph::VertexId> labels);

  std::uint64_t num_vertices() const { return labels_.size(); }
  std::uint64_t num_components() const { return num_components_; }

  /// Canonical component id (the minimum vertex id in v's component).
  graph::VertexId component_of(graph::VertexId v) const { return labels_[v]; }
  bool connected(graph::VertexId u, graph::VertexId v) const {
    return labels_[u] == labels_[v];
  }
  /// Number of vertices in v's component.
  std::uint64_t component_size(graph::VertexId v) const {
    return sizes_[labels_[v]];
  }

  /// Canonical min-id labels, one per vertex.
  const std::vector<graph::VertexId>& labels() const { return labels_; }
  /// Root-indexed sizes: sizes()[r] is the size of the component whose
  /// canonical label is r, and 0 at every non-root index.
  const std::vector<std::uint64_t>& sizes() const { return sizes_; }

  friend bool operator==(const ComponentIndex& a, const ComponentIndex& b) {
    return a.labels_ == b.labels_ && a.sizes_ == b.sizes_ &&
           a.num_components_ == b.num_components_;
  }

 private:
  /// Shared tail of the builders: labels already canonical; fills sizes
  /// and counts roots in one deterministic parallel pass.
  static ComponentIndex finish(std::vector<graph::VertexId> labels);

  std::vector<graph::VertexId> labels_;
  std::vector<std::uint64_t> sizes_;
  std::uint64_t num_components_ = 0;
};

}  // namespace logcc::core
