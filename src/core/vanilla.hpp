// Vanilla algorithm (§B.1) — Reif's random-vote leader contraction recast in
// the paper's framework — and Vanilla-SF (§C.1), its spanning-forest variant.
//
// Used three ways: standalone O(log n) randomized baseline, the PREPARE /
// FOREST-PREPARE densification step of Theorems 1–3, and (run to completion)
// part of the library's guaranteed finisher.
#pragma once

#include <cstdint>
#include <vector>

#include "core/building_blocks.hpp"
#include "core/labels.hpp"
#include "core/metrics.hpp"
#include "graph/graph.hpp"

namespace logcc::core {

struct VanillaOptions {
  std::uint64_t seed = 1;
  /// 0 = run until no non-loop edge remains; otherwise stop after this many
  /// phases (the PREPARE use).
  std::uint64_t max_phases = 0;
  /// Keep the arc list deduplicated between phases (bounds work; semantics
  /// are unchanged because edges are a set).
  bool dedup = true;
};

/// Runs Vanilla phases in place on (forest, arcs). Arcs must connect roots of
/// flat trees (true initially and re-established every phase). Returns the
/// number of phases executed; RunStats::phases/pram_steps are advanced.
/// Coins are mix64(seed, phase, v) with `phase` counted from 1 in each call,
/// so a caller running one phase per call must vary the seed per call.
/// Instantiated for both index widths (vanilla.cpp): on ids that fit both,
/// the two runs produce the same forest and arcs value for value.
template <typename V = VertexId>
std::uint64_t vanilla_phases(BasicParentForest<V>& forest,
                             std::vector<BasicArc<V>>& arcs,
                             const VanillaOptions& opt, RunStats& stats);

/// Vanilla-SF phases: additionally records, for every LINK, the original
/// input edge that realised it (`in_forest[orig] = 1`).
std::uint64_t vanilla_sf_phases(ParentForest& forest, std::vector<Arc>& arcs,
                                std::vector<std::uint8_t>& in_forest,
                                const VanillaOptions& opt, RunStats& stats);

using VanillaCcResult = CcResult;

/// Standalone Vanilla connected components, one overload per index width
/// (an EdgeList converts implicitly to the narrow input). The wide run's
/// labels and phase count equal the narrow run's on every graph that fits
/// both widths.
CcResult vanilla_cc(const graph::ArcsInput& in, std::uint64_t seed = 1);
CcResult64 vanilla_cc(const graph::ArcsInput64& in, std::uint64_t seed = 1);

struct VanillaSfResult {
  std::vector<std::uint64_t> forest_edges;  // canonical edge indices
  RunStats stats;
};

/// Standalone Vanilla-SF spanning forest.
VanillaSfResult vanilla_sf(const graph::ArcsInput& in, std::uint64_t seed = 1);

}  // namespace logcc::core
