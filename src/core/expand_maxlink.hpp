// EXPAND-MAXLINK (§3.1 / §D.1): one round of the Theorem-3 algorithm.
//
// Per round, on the (renamed) compact graph:
//   (1) MAXLINK (2 iterations of parent links towards the highest-level
//       neighbouring parent) then ALTER;
//   (2) every root raises its level with probability ~ 1/b^{0.1} — the
//       pre-emptive raise that keeps collision-triggered raises rare enough
//       for the O(m) space bound (Lemma 3.9/D.12);
//   (3) every root hashes its *equal-budget* root neighbours into H(v);
//   (4) collisions mark vertices dormant; dormancy propagates one hop
//       through tables;
//   (5) one doubling step: H(v) ∪= H(w) for w ∈ H(v) (collision ⇒ dormant);
//       the table contents become added edges of the graph;
//   (6) MAXLINK; SHORTCUT; ALTER;
//   (7) dormant roots that did not raise in (2) raise now;
//   (8) roots are (re)assigned blocks of size b_{ℓ(v)}.
//
// The class owns all round state; FasterCc (faster_cc.hpp) drives it and
// applies the paper's break condition.
//
// Every step is data-parallel and thread-count invariant: MAXLINK resolves
// the "highest (level, id) parent wins" write with a packed fetch-max, the
// random raises draw counter-based coins (mix64(seed, round, v)), Steps (3)
// and (5) are EXPAND's table kernels seed_tables and double_table
// (core/table_slab.hpp) over one table per vertex, and the
// occupancy/budget ledgers are parallel reduces
// (tests/test_expand_maxlink.cpp asserts the invariance end-to-end).
#pragma once

#include <cstdint>
#include <vector>

#include "core/budget.hpp"
#include "core/building_blocks.hpp"
#include "core/labels.hpp"
#include "core/table_slab.hpp"
#include "core/metrics.hpp"
#include "graph/graph.hpp"

namespace logcc::core {

/// Per-round aggregate snapshot, recorded after Step (8); the raw series
/// behind the convergence-trace experiment (bench T5).
struct RoundTrace {
  std::uint64_t round = 0;
  std::uint64_t roots = 0;           // roots among existing vertices
  std::uint64_t active_roots = 0;    // roots with a non-loop edge
  std::uint64_t arcs = 0;            // original (altered) arcs
  std::uint64_t added_edges = 0;     // accumulated added edges
  std::uint64_t collisions = 0;      // hash collisions this round
  std::uint64_t raises = 0;          // level raises this round
  std::uint32_t max_level = 0;
};

class ExpandMaxlink {
 public:
  /// `exists[v]` masks ghost ids created by approximate compaction (the
  /// renamed id space has length 2k but only k live vertices).
  ExpandMaxlink(std::uint64_t n, std::vector<Arc> arcs,
                std::vector<std::uint8_t> exists, const ParamPolicy& policy,
                std::uint64_t seed, RunStats& stats);

  /// Executes one round. Returns true when the paper's break condition
  /// holds: no parent or level changed and Step (5) reached closure
  /// (diameter ≤ 1 and all trees flat).
  bool round();

  std::uint64_t rounds_run() const { return round_; }

  ParentForest& forest() { return forest_; }
  const ParentForest& forest() const { return forest_; }
  const std::vector<std::uint32_t>& levels() const { return level_; }
  const std::vector<std::uint64_t>& budgets() const { return budget_; }

  /// Current graph arcs + added edges, non-loop, deduplicated — the
  /// "remaining graph" handed to the Theorem-1 postprocess.
  std::vector<Arc> remaining_arcs() const;

  /// Enables per-round trace recording (off by default: it costs an O(n)
  /// scan per round).
  void enable_trace() { trace_enabled_ = true; }
  const std::vector<RoundTrace>& trace() const { return trace_; }

 private:
  void maxlink(int iterations, bool& parent_changed);
  void alter_all();
  void mark_endpoints(std::vector<std::uint8_t>& flags) const;
  std::uint64_t tally_raises(const std::vector<std::uint8_t>& flags);

  std::uint64_t n_;
  std::vector<Arc> arcs_;            // altered original edges (orig kept)
  std::vector<Arc> added_;           // altered added edges (accumulated)
  std::vector<std::uint8_t> exists_;
  ParentForest forest_;
  std::vector<std::uint32_t> level_;
  std::vector<std::uint64_t> budget_;
  ParamPolicy policy_;
  std::uint64_t seed_;
  RunStats& stats_;
  std::uint64_t round_ = 0;
  bool trace_enabled_ = false;
  std::vector<RoundTrace> trace_;

  // Round-hoisted scratch (the engine persists across rounds, so these
  // allocate once): packed (level, id) fetch-max cells for MAXLINK, the
  // per-round table slab (variable per-root capacities, epoch-reset each
  // round) with its flat snapshot, seed_tables' fill pairs, and per-vertex
  // tallies.
  std::vector<std::uint64_t> best_;
  TableSlab table_;
  std::vector<std::uint32_t> caps_;        // per-vertex table capacity
  std::vector<std::uint64_t> snap_words_;  // Step-(5) synchronous snapshot
  SeedScratch fill_;
  std::vector<std::uint8_t> active_, raised_, forced_, dormant_, dormant0_;
  std::vector<std::uint8_t> closure_;
  std::vector<std::uint64_t> coll_, new_words_;
  std::vector<Arc> emit_tmp_;
};

}  // namespace logcc::core
