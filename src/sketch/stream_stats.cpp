#include "sketch/stream_stats.hpp"

#include <algorithm>

#include "core/labels.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/scan.hpp"

namespace logcc::sketch {

using graph::VertexId;

StreamStats::StreamStats(std::uint64_t n, StreamStatsOptions options)
    : options_(options),
      parent_(n),
      // Independent streams off one seed, counter-based: stream 1 = edge
      // HLL, 2 = vertex HLL, 3 = degree CMS; finish() uses 4 (component
      // HLL) and 5 (size CMS).
      hll_edges_(options.hll_precision, util::mix64(options.seed, 1)),
      hll_vertices_(options.hll_precision, util::mix64(options.seed, 2)),
      cms_degree_(options.cms_depth, options.cms_width,
                  util::mix64(options.seed, 3), CmsUpdate::kConservative) {
  candidates_.reserve(options_.heavy_hitters);
  util::parallel_for(
      0, n, [&](std::size_t v) { parent_[v] = static_cast<VertexId>(v); });
}

VertexId StreamStats::find(VertexId v) {
  // Path halving: every hop rewires v one level up, so repeated streams
  // keep the forest shallow without a rank array. Roots are always the
  // component minimum (see add_edge), so halving only ever lowers labels.
  while (parent_[v] != v) {
    parent_[v] = parent_[parent_[v]];
    v = parent_[v];
  }
  return v;
}

void StreamStats::update_heavy_candidates(VertexId v, std::uint64_t estimate) {
  if (options_.heavy_hitters == 0) return;
  std::size_t min_at = 0;
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    if (candidates_[i].first == v) {
      candidates_[i].second = estimate;
      return;
    }
    if (candidates_[i].second < candidates_[min_at].second) min_at = i;
  }
  if (candidates_.size() < options_.heavy_hitters) {
    candidates_.emplace_back(v, estimate);
  } else if (estimate > candidates_[min_at].second) {
    candidates_[min_at] = {v, estimate};
  }
}

void StreamStats::add_edge(VertexId u, VertexId v) {
  LOGCC_CHECK_MSG(!finished_, "add_edge after finish()");
  LOGCC_CHECK_MSG(u < parent_.size() && v < parent_.size(),
                  "add_edge: endpoint out of range");
  ++edges_;
  const VertexId lo = u < v ? u : v;
  const VertexId hi = u < v ? v : u;
  hll_edges_.add((static_cast<std::uint64_t>(lo) << 32) | hi);
  hll_vertices_.add(u);
  cms_degree_.add(u);
  update_heavy_candidates(u, cms_degree_.estimate(u));
  if (u == v) {
    ++self_loops_;
    return;
  }
  hll_vertices_.add(v);
  cms_degree_.add(v);
  update_heavy_candidates(v, cms_degree_.estimate(v));
  // Union by min id: the larger root adopts the smaller, so every root is
  // its component's minimum and the flattened array is canonical.
  const VertexId ru = find(u);
  const VertexId rv = find(v);
  if (ru == rv) return;
  if (ru < rv)
    parent_[rv] = ru;
  else
    parent_[ru] = rv;
}

StreamSummary StreamStats::finish() {
  LOGCC_CHECK_MSG(!finished_, "finish() called twice");
  finished_ = true;
  const std::uint64_t n = parent_.size();

  // Flatten to labels via synchronous SHORTCUT steps (core::shortcut_step,
  // the step every layer shares): deterministic for every thread count,
  // O(log depth) steps.
  {
    std::vector<VertexId> next;
    while (core::shortcut_step(parent_, next)) {
    }
  }

  // The label-derived sketches: distinct labels ~= component count; label
  // multiplicity ~= component size. Standard-mode parallel fills, so these
  // are bit-identical for every thread count and backend.
  hll_components_ = HyperLogLog(
      options_.hll_precision, util::mix64(options_.seed, kComponentHllStream));
  cms_sizes_ = CountMinSketch(options_.cms_depth, options_.cms_width,
                              util::mix64(options_.seed, kSizeCmsStream),
                              CmsUpdate::kStandard);
  const std::span<const VertexId> labels(parent_);
  hll_components_.add_parallel(labels);
  cms_sizes_.add_parallel(labels);

  StreamSummary out;
  out.num_vertices = n;
  out.edges = edges_;
  out.self_loops = self_loops_;
  out.distinct_edges = hll_edges_.estimate();
  out.touched_vertices = hll_vertices_.estimate();
  out.hll_standard_error = hll_edges_.standard_error();
  out.approx_components = hll_components_.estimate();
  out.exact_components = util::parallel_reduce(
      std::size_t{0}, static_cast<std::size_t>(n), std::uint64_t{0},
      [&](std::size_t v) {
        return static_cast<std::uint64_t>(parent_[v] == v);
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  out.size_epsilon = cms_sizes_.epsilon();
  out.sketch_bytes = hll_edges_.memory_bytes() + hll_vertices_.memory_bytes() +
                     cms_degree_.memory_bytes() +
                     hll_components_.memory_bytes() +
                     cms_sizes_.memory_bytes();
  out.state_bytes = n * sizeof(VertexId);

  // Resolve heavy-hitter candidates to components: per root keep the
  // heaviest member, then count exact sizes for just those few roots in
  // one pass over the labels.
  for (const auto& [v, est] : candidates_) {
    const VertexId root = parent_[v];
    auto it = std::find_if(out.heavy.begin(), out.heavy.end(),
                           [&](const HeavyComponent& h) {
                             return h.root == root;
                           });
    if (it == out.heavy.end()) {
      HeavyComponent h;
      h.root = root;
      h.hot_vertex = v;
      h.endpoint_mass = est;
      h.approx_size = cms_sizes_.estimate(root);
      out.heavy.push_back(h);
    } else if (est > it->endpoint_mass ||
               (est == it->endpoint_mass && v < it->hot_vertex)) {
      it->hot_vertex = v;
      it->endpoint_mass = est;
    }
  }
  for (std::uint64_t v = 0; v < n; ++v) {
    for (HeavyComponent& h : out.heavy)
      if (parent_[v] == h.root) ++h.exact_size;
  }
  std::sort(out.heavy.begin(), out.heavy.end(),
            [](const HeavyComponent& a, const HeavyComponent& b) {
              if (a.endpoint_mass != b.endpoint_mass)
                return a.endpoint_mass > b.endpoint_mass;
              return a.root < b.root;
            });
  return out;
}

const std::vector<VertexId>& StreamStats::labels() const {
  LOGCC_CHECK_MSG(finished_, "labels() before finish()");
  return parent_;
}

}  // namespace logcc::sketch
