// Public API of logcc.
//
// One call computes connected components (or a spanning forest) of an
// undirected edge list with the algorithm of your choice — the paper's three
// algorithms plus the classical baselines — and reports the paper-relevant
// cost metrics alongside the answer.
//
//   #include "core/connectivity.hpp"
//   auto g = logcc::graph::make_gnm(1'000'000, 4'000'000, /*seed=*/42);
//   auto r = logcc::connected_components(g);     // Theorem-3 algorithm
//   // r.index.connected(v, w), r.labels()[v], r.num_components()
//   // r.stats.rounds, r.stats.peak_space_words, ...
//
// Every algorithm produces a core::ComponentIndex — canonical min-id
// labels, per-component sizes, and the component count in one snapshot
// type. The incremental serve::ConnectivityEngine publishes the same type
// between epochs, so batch, incremental, and bench layers all speak one
// result vocabulary (see core/component_index.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/cc_theorem1.hpp"
#include "core/component_index.hpp"
#include "core/faster_cc.hpp"
#include "core/metrics.hpp"
#include "core/spanning_forest.hpp"
#include "graph/arcs_input.hpp"
#include "graph/graph.hpp"

namespace logcc {

enum class Algorithm {
  kFasterCC,          // Theorem 3: O(log d + log log_{m/n} n)
  kTheorem1,          // Theorem 1: O(log d · log log_{m/n} n)
  kVanilla,           // Reif random-vote: O(log n)
  kShiloachVishkin,   // SV'82: O(log n), deterministic
  kAwerbuchShiloach,  // AS'87: O(log n), deterministic
  kLabelProp,         // min-label propagation: O(d)
  kLiuTarjan,         // LT'19 style hook+shortcut+alter: O(log n)
  kUnionFind,         // sequential union-find
  kBFS,               // sequential BFS (the oracle)
};

/// All algorithms, for sweeps.
const std::vector<Algorithm>& all_algorithms();
const char* to_string(Algorithm a);
/// Parses the names printed by to_string; nullopt for any other name.
std::optional<Algorithm> algorithm_from_string(const std::string& name);

/// The seed drives every randomized algorithm (faster-cc, theorem1,
/// vanilla and both SF algorithms); the deterministic baselines ignore it.
/// `faster` tunes faster-cc only (its own seed is overridden by `seed`);
/// theorem1 and theorem2 run their default Theorem1Params.
struct Options {
  std::uint64_t seed = 1;
  core::FasterCcParams faster;
};

struct ComponentsResult {
  core::ComponentIndex index;  // canonical snapshot: labels + sizes + count
  core::RunStats stats;
  double seconds = 0.0;

  /// Convenience views into `index` (the historical field names).
  const std::vector<graph::VertexId>& labels() const {
    return index.labels();
  }
  std::uint64_t num_components() const { return index.num_components(); }
};

/// The ArcsInput overload is the front door: CSR-backed inputs (mmap
/// datasets, Graph views) run with zero intermediate EdgeList
/// materialization, and results are bit-identical to running the EdgeList
/// path on the same canonical edge order.
ComponentsResult connected_components(
    const graph::ArcsInput& in, Algorithm algorithm = Algorithm::kFasterCC,
    const Options& options = {});

enum class SfAlgorithm {
  kTheorem2,  // §C
  kVanillaSF  // §C.1
};

struct ForestResult {
  std::vector<std::uint64_t> forest_edges;  // canonical edge indices
  core::RunStats stats;
  double seconds = 0.0;
};

ForestResult spanning_forest(const graph::ArcsInput& in,
                             SfAlgorithm algorithm = SfAlgorithm::kTheorem2,
                             const Options& options = {});

/// Independent O(m α(n)) verification that `index` is exactly the component
/// structure of the input: every edge joins equal labels, and the index's
/// component count AND per-component sizes match a union-find recomputation
/// (no shared code with the PRAM algorithms) — all in the same pass. Use
/// when the caller wants a certificate rather than trust. mmap-backed
/// datasets verify without materializing their edges. To check a bare
/// label vector, wrap it with ComponentIndex::from_labels.
bool verify_components(const graph::ArcsInput& in,
                       const core::ComponentIndex& index);

}  // namespace logcc
