// Per-run cost metrics. The paper's theorems bound *rounds/steps*, *number of
// processors* and *success probability*; RunStats captures the measured
// counterparts so benches can print paper-claim vs. measured directly.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace logcc::core {

struct RunStats {
  // Outer progress counters.
  std::uint64_t rounds = 0;          // Thm 3: EXPAND-MAXLINK rounds
  std::uint64_t phases = 0;          // Thm 1/2 & Vanilla: phase count
  std::uint64_t prepare_phases = 0;  // PREPARE/COMPACT densification phases
  std::uint64_t expand_rounds = 0;   // inner EXPAND doubling rounds (total)

  // Modeled PRAM cost: every O(1)-time step of the algorithm adds 1. This is
  // what the theorems' time bounds refer to.
  std::uint64_t pram_steps = 0;

  // Space/processor accounting (words). peak = max over rounds of
  // (arc processors + block space in use); total_block = sum of all blocks
  // ever allocated (the paper's zone ledger, Lemma 3.10/D.13 bounds it O(m)).
  std::uint64_t peak_space_words = 0;
  std::uint64_t total_block_words = 0;

  // Hashing behaviour.
  std::uint64_t hash_collisions = 0;
  std::uint64_t level_raises = 0;     // random (Step 2) + forced (Step 7)
  std::uint32_t max_level = 0;        // Lemma 3.19/D.23 bound target
  std::vector<std::uint64_t> level_histogram;  // vertices that reached level i

  // Robustness.
  bool finisher_used = false;   // guaranteed-convergent fallback fired
  bool prepare_used = false;    // PREPARE/COMPACT densification ran

  friend bool operator==(const RunStats&, const RunStats&) = default;

  void bump_level_histogram(std::uint32_t level) {
    if (level_histogram.size() <= level) level_histogram.resize(level + 1, 0);
    ++level_histogram[level];
  }

  /// Merges counters from a sub-run (e.g. Thm 3's Thm-1 postprocess).
  void absorb(const RunStats& other) {
    rounds += other.rounds;
    phases += other.phases;
    prepare_phases += other.prepare_phases;
    expand_rounds += other.expand_rounds;
    pram_steps += other.pram_steps;
    peak_space_words = std::max(peak_space_words, other.peak_space_words);
    total_block_words += other.total_block_words;
    hash_collisions += other.hash_collisions;
    level_raises += other.level_raises;
    max_level = std::max(max_level, other.max_level);
    finisher_used = finisher_used || other.finisher_used;
    prepare_used = prepare_used || other.prepare_used;
    for (std::size_t i = 0; i < other.level_histogram.size(); ++i) {
      if (level_histogram.size() <= i) level_histogram.resize(i + 1, 0);
      level_histogram[i] += other.level_histogram[i];
    }
  }
};

/// What every connected-components algorithm returns — the paper's three
/// and the baselines alike: a root id per vertex plus the run's counters (a
/// round-loop baseline fills only `rounds`). CcResult64 is the wide
/// (LOGCCSR2) instantiation.
template <typename V>
struct BasicCcResult {
  std::vector<V> labels;
  RunStats stats;
};

using CcResult = BasicCcResult<graph::VertexId>;
using CcResult64 = BasicCcResult<graph::VertexId64>;

/// What every spanning-forest algorithm returns: the forest as ascending
/// indices into the input's canonical edge order, plus the run's counters.
struct SfResult {
  std::vector<std::uint64_t> forest_edges;
  RunStats stats;
};

}  // namespace logcc::core
