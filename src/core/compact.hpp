// COMPACT (§D): PREPARE + renaming via approximate compaction.
//
// Why it exists (§1.2.2): Theorem 3 allocates different-sized processor
// blocks every round; doing that with approximate compaction costs
// O(log* n) per use unless the id space is first shrunk so that each array
// cell owns polylog(n) processors. COMPACT therefore (a) runs the shared
// PREPARE (core/vanilla.hpp) until the ongoing-vertex count is small
// relative to m, then (b) renames the ongoing roots — the vertices
// mark_ongoing flags — into a dense id space of length 2k via approximate
// compaction (Definition D.1) and hands out the initial blocks.
//
// The vector-based compaction here is the same randomized retry algorithm
// as pram::approximate_compaction (which runs on the step simulator); this
// one is the fast vehicle.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/building_blocks.hpp"
#include "core/labels.hpp"
#include "core/metrics.hpp"
#include "core/vanilla.hpp"
#include "graph/graph.hpp"

namespace logcc::core {

/// Maps each flagged index one-to-one into [0, 2k) (k = number of flags) by
/// repeated pairwise-independent hashing; unflagged indices get kInvalid.
/// Returns nullopt only if `max_rounds` rounds cannot place everything.
std::optional<std::vector<std::uint32_t>> approximate_compaction_vec(
    const std::vector<std::uint8_t>& flags, std::uint64_t seed,
    std::uint32_t max_rounds = 48);

struct CompactParams {
  std::uint64_t seed = 1;
  /// PREPARE target: densify until m / #ongoing >= this (or solved).
  double target_density = 64.0;
  /// PREPARE's phase budget (PrepareRule::max_phases).
  std::uint64_t prepare_max_phases = PrepareRule::kAutoPhases;
};

struct CompactResult {
  /// Parents in the original id space after PREPARE (flat trees).
  ParentForest outer;
  /// Renamed id space size (2k; ids without a vertex are ghosts).
  std::uint64_t n_compact = 0;
  std::vector<std::uint8_t> exists;          // [n_compact]
  std::vector<VertexId> orig_of;             // [n_compact] -> original id
  std::vector<std::uint32_t> renamed_of;     // [n] -> compact id or kInvalid
  std::vector<Arc> arcs;                     // compact id space, orig kept
  RunStats stats;

  static constexpr std::uint32_t kInvalid = static_cast<std::uint32_t>(-1);
};

/// Runs PREPARE + renaming on the input. The returned arcs connect compact
/// ids of the ongoing roots.
CompactResult compact(const graph::ArcsInput& in, const CompactParams& params);

}  // namespace logcc::core
