#include "core/component_index.hpp"

#include <atomic>

#include "graph/graph_algos.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/scan.hpp"

namespace logcc::core {

using graph::VertexId;

// Size accumulation is commutative integer fetch-add, so the result is
// thread-count invariant; the root count folds in block order through
// parallel_reduce.
ComponentIndex ComponentIndex::finish(std::vector<VertexId> labels) {
  ComponentIndex out;
  const std::uint64_t n = labels.size();
  out.labels_ = std::move(labels);
  out.sizes_.assign(n, 0);
  const std::vector<VertexId>& l = out.labels_;
  util::parallel_for(0, n, [&](std::size_t v) {
    std::atomic_ref<std::uint64_t>(out.sizes_[l[v]])
        .fetch_add(1, std::memory_order_relaxed);
  });
  out.num_components_ = util::parallel_reduce(
      std::size_t{0}, static_cast<std::size_t>(n), std::uint64_t{0},
      [&](std::size_t v) { return l[v] == v ? std::uint64_t{1} : 0; },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  return out;
}

ComponentIndex ComponentIndex::from_labels(std::vector<VertexId> labels) {
  return finish(graph::canonical_labels(labels));
}

ComponentIndex ComponentIndex::from_canonical_labels(
    std::vector<VertexId> labels) {
  const std::uint64_t n = labels.size();
  const bool canonical = util::parallel_reduce(
      std::size_t{0}, static_cast<std::size_t>(n), true,
      [&](std::size_t v) {
        return labels[v] <= v && labels[labels[v]] == labels[v];
      },
      [](bool a, bool b) { return a && b; });
  LOGCC_CHECK_MSG(canonical,
                  "from_canonical_labels: labels are not min-id canonical");
  return finish(std::move(labels));
}

}  // namespace logcc::core
