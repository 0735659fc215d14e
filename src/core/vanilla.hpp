// Vanilla algorithm (§B.1) — Reif's random-vote leader contraction recast in
// the paper's framework — and Vanilla-SF (§C.1), its spanning-forest variant.
//
// One phase loop, vanilla_loop, serves every use; its caller picks each
// phase's coin seed and when to stop. The uses: the standalone O(log n)
// randomized baseline (vanilla_phases, vanilla_cc, vanilla_sf); PREPARE,
// the densification step all three theorems open with (§B.2,
// FOREST-PREPARE of §C.1, COMPACT of §D); and the wide faster-cc bridge's
// contraction, which stops on an arc count instead.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/building_blocks.hpp"
#include "core/labels.hpp"
#include "core/metrics.hpp"
#include "graph/graph.hpp"
#include "util/random.hpp"

namespace logcc::core {

template <typename V>
struct VanillaSchedule {
  /// Coin seed of phase p (from 0): v is a leader iff mix64(coin_seed(p), v)
  /// is odd. Counter-based coins need no cross-processor order, so labels
  /// are bit-identical for every thread count.
  std::function<std::uint64_t(std::uint64_t p)> coin_seed;
  /// Asked before phase p while a non-loop arc remains; true ends the loop.
  std::function<bool(std::uint64_t p, const std::vector<BasicArc<V>>& arcs)>
      stop;
};

/// The Vanilla phase loop, in place on (forest, arcs): VOTE, MARK-EDGE,
/// LINK, SHORTCUT, ALTER, drop loops, dedup. Arcs must connect roots of
/// flat trees (true initially and re-established every phase). With
/// `in_forest`, every LINK marks the input edge that realised it
/// (Vanilla-SF). Adds 5 PRAM steps per phase and returns the phase count;
/// the caller books it as RunStats::phases or prepare_phases. Instantiated
/// for both index widths: on ids that fit both, the two runs produce the
/// same forest and arcs value for value.
template <typename V = VertexId>
std::uint64_t vanilla_loop(BasicParentForest<V>& forest,
                           std::vector<BasicArc<V>>& arcs,
                           const VanillaSchedule<V>& schedule, RunStats& stats,
                           std::vector<std::uint8_t>* in_forest = nullptr);

struct VanillaOptions {
  std::uint64_t seed = 1;
  /// 0 = run until no non-loop edge remains; otherwise stop after this many
  /// phases.
  std::uint64_t max_phases = 0;
};

/// Vanilla phases with coins mix64(seed, phase, v), `phase` counted from 1
/// in each call. Returns the number of phases run, also added to
/// RunStats::phases.
template <typename V = VertexId>
std::uint64_t vanilla_phases(BasicParentForest<V>& forest,
                             std::vector<BasicArc<V>>& arcs,
                             const VanillaOptions& opt, RunStats& stats);

/// PREPARE's stop rule and coins; each driver salts its coins apart.
struct PrepareRule {
  std::uint64_t seed = 1;
  std::uint64_t salt = 0;
  /// Stop once m0 / #ongoing reaches this density (the paper's log^c n).
  double target_density = 64.0;
  /// kAutoPhases is the paper's Θ(log log n) budget, 2·log log_{m0/n} n + 4.
  /// A density rule alone would contract high-diameter graphs all the way
  /// down and erase the log d term the experiments measure.
  static constexpr std::uint64_t kAutoPhases = static_cast<std::uint64_t>(-1);
  std::uint64_t max_phases = kAutoPhases;

  /// Phase p draws the coins of phase 1 of vanilla_phases seeded
  /// mix64(seed, salt + p).
  std::uint64_t coin_seed(std::uint64_t p) const {
    return util::mix64(seed, salt + p, 1);
  }
};

/// PREPARE, m0 the deduplicated input arc count: Vanilla phases until
/// m0 / #ongoing >= rule.target_density (mark_ongoing counts before each
/// phase), the budget is spent, or no non-loop arc is left. Its phases
/// count as stats.prepare_phases, never stats.phases; stats.prepare_used is
/// set iff one ran. `in_forest` makes it FOREST-PREPARE. Returns the phases.
std::uint64_t prepare(ParentForest& forest, std::vector<Arc>& arcs,
                      std::uint64_t m0, const PrepareRule& rule,
                      RunStats& stats,
                      std::vector<std::uint8_t>* in_forest = nullptr);

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
