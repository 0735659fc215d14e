// The EXPAND procedure (§B.3): repeated neighbourhood doubling through
// per-vertex hash tables.
//
// Mechanics per phase:
//   1. ongoing vertices are hashed to blocks via h_B; a vertex that is not
//      the unique occupant of its block is *fully dormant*;
//   2. each block owner u gets a hash table H(u); round 0 hashes u and its
//      graph neighbours into H(u) (collision ⇒ dormant);
//   3. each subsequent round replaces H(u) by ∪_{v∈H(u)} H(v) (hashing via
//      h_V; collision or a dormant member ⇒ u dormant);
// so while u stays live and collision-free, H_j(u) = B(u, 2^j) (Lemma B.7):
// the ball of radius 2^j around u. The loop runs until no table grows and no
// status changes — O(log d) rounds.
//
// Dormancy never stops the table from being *used*; it stops the guarantee
// that the table equals the ball and signals VOTE to treat u pessimistically.
//
// `keep_history` retains H_j(u) for every round j — required by the
// spanning forest's TREE-LINK (§C.3). Each round's tables are packed into
// one list in the scratch (per-slot counts, a prefix sum, a fill in cell
// order), so H_j(u) is a span into it. One engine runs per phase of
// expand_loop (core/cc_theorem1.hpp), the phase loop of Theorems 1 and 2.
//
// Tables are seeded and doubled by the kernels EXPAND-MAXLINK runs too,
// seed_tables and double_table (core/table_slab.hpp); block occupancy,
// dormancy and the skip of stable slots stay here. Every step is
// data-parallel and thread-count invariant: the same input yields
// bit-identical tables, dormancy rounds and stats for every
// OMP_NUM_THREADS (tests/test_expand.cpp asserts it).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/building_blocks.hpp"
#include "core/metrics.hpp"
#include "core/table_slab.hpp"
#include "util/hashing.hpp"

namespace logcc::core {

struct ExpandParams {
  std::uint64_t block_count = 1;   // number of h_B blocks (≈ m / δ^{2/3})
  std::uint32_t table_capacity = 4;  // |H(u)| (≈ δ^{1/3})
  std::uint64_t seed = 1;          // h_B, h_V derived deterministically
  std::uint32_t max_rounds = 64;   // safety cap on doubling rounds
  bool keep_history = false;       // retain H_j for TREE-LINK
};

/// One round's tables packed in slot order: H(s) is
/// items[begin[s] .. begin[s + 1]), in cell order.
struct PackedTables {
  std::vector<std::size_t> begin;  // num_slots + 1 entries
  std::vector<VertexId> items;
};

/// Caller-hoisted scratch for the engine's parallel kernels. Phase loops
/// construct one ExpandEngine per phase; hoisting the scratch (like the
/// ongoing flags they hand collect_ongoing) avoids re-allocating the O(n)
/// slot map, the bucket-partition buffers, the table slab, the kept
/// history and the doubling-round state every phase. `slot_of` must be
/// all-kNoSlot on entry; the engine restores it (touched entries only) on
/// destruction.
struct ExpandScratch {
  std::vector<std::uint32_t> slot_of;  // n entries, kNoSlot except ongoing
  std::vector<std::pair<std::uint64_t, std::uint32_t>> block_keys;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> block_keys_tmp;
  SeedScratch fill;                       // seed_tables' fill pairs
  std::vector<std::uint64_t> collisions;  // per-slot tallies
  TableSlab tables;                       // H(u) buckets, epoch-reset per phase
  std::vector<std::uint64_t> snapshot_words;  // per-round flat table snapshot
  std::vector<std::uint8_t> owns_block;
  std::vector<std::uint32_t> dormant_round;
  // Doubling-round flags (hoisted: rounds are the innermost hot loop).
  std::vector<std::uint8_t> changed, went_dormant, dormant_in;
  std::vector<std::uint8_t> changed_now, dormant_now;
  std::vector<PackedTables> history;  // [round], with keep_history
};

class ExpandEngine {
 public:
  static constexpr std::uint32_t kNoSlot = kNoTable;
  static constexpr std::uint32_t kNeverDormant = static_cast<std::uint32_t>(-1);

  /// `ongoing` lists the roots participating this phase; `arcs` are the
  /// current (altered) arcs — only those whose both endpoints are ongoing
  /// are used. `scratch` must outlive the engine and not be shared with a
  /// concurrently-live engine.
  ExpandEngine(std::uint64_t n, std::span<const VertexId> ongoing,
               std::span<const Arc> arcs, const ExpandParams& params,
               RunStats& stats, ExpandScratch& scratch);
  ~ExpandEngine();
  ExpandEngine(const ExpandEngine&) = delete;
  ExpandEngine& operator=(const ExpandEngine&) = delete;

  /// Executes Steps (1)–(5); fills all result accessors below.
  void run();

  std::uint32_t num_slots() const {
    return static_cast<std::uint32_t>(ongoing_.size());
  }
  std::uint32_t slot_of(VertexId v) const { return scratch_.slot_of[v]; }
  VertexId vertex_of(std::uint32_t slot) const { return ongoing_[slot]; }

  bool owns_block(std::uint32_t slot) const {
    return scratch_.owns_block[slot] != 0;
  }
  bool fully_dormant(std::uint32_t slot) const { return !owns_block(slot); }
  /// Round at which the vertex became dormant; kNeverDormant if it stayed
  /// live throughout. Fully dormant vertices report round 0.
  std::uint32_t dormant_round(std::uint32_t slot) const {
    return scratch_.dormant_round[slot];
  }
  bool live_after(std::uint32_t slot) const {
    return dormant_round(slot) == kNeverDormant;
  }
  /// "v is live in round j of Step (5)" in the paper's sense.
  bool live_in_round(std::uint32_t slot, std::uint32_t j) const {
    return owns_block(slot) &&
           (dormant_round(slot) == kNeverDormant || dormant_round(slot) > j);
  }

  TableView table(std::uint32_t slot) const {
    return TableView(&scratch_.tables, slot);
  }

  /// Total doubling rounds executed (the paper's T).
  std::uint32_t rounds() const { return rounds_; }

  /// History: items of H_j(slot) in cell order; valid when keep_history,
  /// for j in [0, rounds()], while the engine lives.
  std::span<const VertexId> history(std::uint32_t j, std::uint32_t slot) const;

  const util::PairwiseHash& hv() const { return hv_; }
  std::uint32_t table_capacity() const { return params_.table_capacity; }

 private:
  void assign_blocks();
  void seed();             // Steps (3) and (4)
  void doubling_rounds();  // Step (5)
  void snapshot_history();  // packs this round's tables into history
  void flush_collisions();  // scratch tallies -> stats_.hash_collisions

  std::uint64_t n_;
  std::vector<VertexId> ongoing_;
  std::span<const Arc> arcs_;
  ExpandParams params_;
  RunStats& stats_;

  util::PairwiseHash hb_, hv_;
  ExpandScratch& scratch_;  // tables/flags/history live here, hoisted
  std::uint32_t history_rounds_ = 0;  // rounds packed into scratch_.history
  std::uint32_t rounds_ = 0;
};

}  // namespace logcc::core
