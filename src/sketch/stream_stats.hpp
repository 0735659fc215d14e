// StreamStats: the one-pass streaming aggregator of the approximate tier —
// what `cc_tool --sketch` runs over a generator edge stream it never
// materializes (docs/ARCHITECTURE.md "Approximate tier").
//
// Memory model: O(n) vertex state + O(1) sketches, never O(m) edges. The
// vertex state is a core::ParentForest that every stream edge unites by
// minimum id (ParentForest::unite, the union serve::ConnectivityEngine
// merges its batches with), which makes the connectivity answers exact;
// everything edge-mass shaped — distinct edges under stream duplication,
// per-vertex degree mass, heavy hitters — is sketched, because answering
// it exactly would need the O(m) state the streaming mode exists to avoid:
//
//   hll_edges    distinct (deduplicated) edges:  HyperLogLog over the
//                canonical min<<32|max endpoint key.
//   hll_vertices distinct non-isolated vertices: HyperLogLog over both
//                endpoints.
//   cms_degree   per-vertex endpoint mass (degree with multiplicity):
//                conservative-update CountMinSketch + a bounded top-k
//                candidate list, the classic heavy-hitter loop.
//   hll_components / cms_sizes (built by finish()): component count and
//                per-component size estimated from the final label array.
//
// Determinism: add_edge is sequential (a stream has an order; generator
// enumeration is single-threaded by contract) and all hashing is seeded
// mix64, so a (stream, options) pair fully determines every sketch bit.
// finish() uses only order-invariant parallel steps (ParentForest::flatten,
// atomic-max/add bulk sketch fills), so its results are also bit-identical
// for every thread count and backend — pinned by tests/test_sketch.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "core/labels.hpp"
#include "graph/graph.hpp"
#include "sketch/count_min.hpp"
#include "sketch/hyperloglog.hpp"

namespace logcc::sketch {

/// Sub-seed streams (mix64(seed, stream)) for the label-derived sketches
/// StreamStats::finish builds.
inline constexpr std::uint64_t kComponentHllStream = 4;
inline constexpr std::uint64_t kSizeCmsStream = 5;

struct StreamStatsOptions {
  /// Register-array size of every HyperLogLog: m = 2^hll_precision, one
  /// byte per register, standard error 1.04/sqrt(m) (~1.6% at 12).
  int hll_precision = 12;
  std::uint32_t cms_depth = 4;
  std::uint32_t cms_width = 1u << 14;
  /// Top-k candidate slots the heavy-hitter loop maintains.
  std::uint32_t heavy_hitters = 8;
  std::uint64_t seed = 1;
};

/// One heavy-hitter component of the finished stream: the component (by
/// canonical min-id root) of a vertex the degree sketch flagged as heavy.
struct HeavyComponent {
  graph::VertexId root = 0;        // canonical component label
  graph::VertexId hot_vertex = 0;  // the flagged member vertex
  std::uint64_t endpoint_mass = 0; // cms_degree estimate for hot_vertex
  std::uint64_t exact_size = 0;    // exact member count (from the labels)
  std::uint64_t approx_size = 0;   // cms_sizes estimate (overestimate-only)
};

/// Everything finish() reports. Estimates carry their a-priori error
/// bounds so consumers can print honest error bars without knowing sketch
/// internals.
struct StreamSummary {
  std::uint64_t num_vertices = 0;
  std::uint64_t edges = 0;       // exact, with multiplicity, incl. loops
  std::uint64_t self_loops = 0;  // exact
  double distinct_edges = 0.0;       // HLL estimate
  double touched_vertices = 0.0;     // HLL estimate (non-isolated vertices)
  double hll_standard_error = 0.0;   // 1.04/sqrt(m): ±1σ for the HLLs above
  std::uint64_t exact_components = 0;  // from the label array
  double approx_components = 0.0;      // HLL-over-labels estimate
  double size_epsilon = 0.0;  // cms_sizes bound: approx <= exact + eps*n
  std::uint64_t sketch_bytes = 0;  // all sketches together
  std::uint64_t state_bytes = 0;   // the O(n) label array
  std::vector<HeavyComponent> heavy;  // endpoint-mass-descending
};

class StreamStats {
 public:
  /// Aggregator over the fixed vertex universe [0, n).
  explicit StreamStats(std::uint64_t n, StreamStatsOptions options = {});

  /// Consumes one stream edge (endpoints < n, LOGCC_CHECK; self-loops and
  /// duplicates welcome — that is the point). Sequential by design.
  void add_edge(graph::VertexId u, graph::VertexId v);

  /// Flattens the label array to canonical min-id form, builds the
  /// component-count HLL and size CMS from it, resolves heavy-hitter
  /// candidates to components, and reports. Call once, after the stream;
  /// add_edge afterwards is a LOGCC_CHECK failure.
  StreamSummary finish();

  /// Canonical min-id labels — exact, identical to what the batch
  /// algorithms produce on the accumulated edge set (valid after finish).
  const std::vector<graph::VertexId>& labels() const;

  // --- sketch access (for tests, benches, and serialization) -------------
  const HyperLogLog& edge_hll() const { return hll_edges_; }
  const HyperLogLog& vertex_hll() const { return hll_vertices_; }
  const CountMinSketch& degree_cms() const { return cms_degree_; }
  /// Valid after finish().
  const HyperLogLog& component_hll() const { return hll_components_; }
  const CountMinSketch& size_cms() const { return cms_sizes_; }

  std::uint64_t num_vertices() const { return forest_.size(); }
  std::uint64_t num_edges() const { return edges_; }
  const StreamStatsOptions& options() const { return options_; }

 private:
  void update_heavy_candidates(graph::VertexId v, std::uint64_t estimate);

  StreamStatsOptions options_;
  core::ParentForest forest_;  // min-rooted; flat after finish()
  std::uint64_t edges_ = 0;
  std::uint64_t self_loops_ = 0;
  bool finished_ = false;

  HyperLogLog hll_edges_;
  HyperLogLog hll_vertices_;
  CountMinSketch cms_degree_;  // conservative: sequential stream owns order
  // Built by finish() from the final labels (standard mode, parallel fill).
  HyperLogLog hll_components_;
  CountMinSketch cms_sizes_;

  // Bounded heavy-hitter candidates: (vertex, last cms_degree estimate).
  std::vector<std::pair<graph::VertexId, std::uint64_t>> candidates_;
};

}  // namespace logcc::sketch
