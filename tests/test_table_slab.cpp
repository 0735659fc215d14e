// TableSlab — the bucketized, cache-line-aligned backing store behind the
// EXPAND / EXPAND-MAXLINK per-vertex hash tables.
//
// Three layers of coverage:
//   1. the CRCW insert semantics per cell, on a one-table slab;
//   2. a randomized differential test: 10k seeded fill sequences replayed
//      against the slab and a flat first-writer-wins table
//      (testing::FlatTable), asserting bit-for-bit agreement on every
//      Insert outcome, count, collided flag, and final cell image — this
//      is the "collision semantics preserved" guarantee the determinism
//      contract rests on;
//   3. thread-invariance sweeps for the parallel in-bucket radix dedup
//      (core dedup_arcs and the LT ALTER path) at 1/2/4/8 lanes across the
//      pool / serial backends.
#include "core/table_slab.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/building_blocks.hpp"
#include "baselines/lt_family.hpp"
#include "graph/generators.hpp"
#include "test_support.hpp"
#include "util/hashing.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

namespace logcc::core {
namespace {

using logcc::testing::BackendInvariance;
using logcc::testing::FlatTable;
using Insert = TableSlab::Insert;

// ---- 1. CRCW insert semantics (single-table slab).

TEST(TableSlab, InsertNewAndPresent) {
  TableSlab s;
  s.reset_uniform(1, 4);
  EXPECT_EQ(s.insert_at(0, 2, 7), Insert::kNew);
  EXPECT_EQ(s.count(0), 1u);
  EXPECT_EQ(s.insert_at(0, 2, 7), Insert::kPresent);
  EXPECT_EQ(s.count(0), 1u);
  EXPECT_FALSE(s.collided(0));
}

TEST(TableSlab, CollisionDetected) {
  TableSlab s;
  s.reset_uniform(1, 4);
  s.insert_at(0, 1, 5);
  EXPECT_EQ(s.insert_at(0, 1, 6), Insert::kCollision);
  EXPECT_TRUE(s.collided(0));
  EXPECT_EQ(s.count(0), 1u);  // loser is not stored
}

TEST(TableSlab, CollisionKeepsFirstOccupant) {
  // CRCW semantics in our rendering: the first write wins, later different
  // writes are collisions; re-reading the cell shows the original value.
  TableSlab s;
  s.reset_uniform(1, 2);
  s.insert_at(0, 0, 9);
  s.insert_at(0, 0, 10);
  EXPECT_TRUE(s.contains_at(0, 0, 9));
  EXPECT_FALSE(s.contains_at(0, 0, 10));
}

TEST(TableSlab, ResetClearsEverything) {
  TableSlab s;
  s.reset_uniform(1, 2);
  s.insert_at(0, 0, 1);
  s.insert_at(0, 0, 2);  // collision
  s.reset_uniform(1, 8);
  EXPECT_EQ(s.capacity(0), 8u);
  EXPECT_EQ(s.count(0), 0u);
  EXPECT_FALSE(s.collided(0));
}

TEST(TableSlab, ItemsAndForEach) {
  TableSlab s;
  s.reset_uniform(1, 8);
  s.insert_at(0, 1, 11);
  s.insert_at(0, 5, 55);
  TableView view(&s, 0);
  auto items = view.items();
  ASSERT_EQ(items.size(), 2u);
  // Cell order.
  EXPECT_EQ(items[0], 11u);
  EXPECT_EQ(items[1], 55u);
  std::uint32_t visits = 0;
  s.for_each(0, [&](graph::VertexId v) {
    EXPECT_TRUE(v == 11 || v == 55);
    ++visits;
  });
  EXPECT_EQ(visits, 2u);
}

TEST(TableSlab, ContainsAtBounds) {
  TableSlab s;
  s.reset_uniform(1, 2);
  EXPECT_FALSE(s.contains_at(0, 5, 1));  // out of range is just "no"
}

TEST(TableSlab, DedupByHashingMatchesPaperClaim) {
  // "Hashing naturally removes the duplicate neighbors": inserting the same
  // vertex many times through a hash function keeps one copy, no collision.
  TableSlab s;
  s.reset_uniform(1, 16);
  auto h = util::PairwiseHash::from_seed(3);
  for (int rep = 0; rep < 10; ++rep) {
    auto cell = static_cast<std::uint32_t>(h(42, s.capacity(0)));
    s.insert_at(0, cell, 42);
  }
  EXPECT_EQ(s.count(0), 1u);
  EXPECT_FALSE(s.collided(0));
}

// ---- Slab-specific behaviour the flat table never had.

TEST(TableSlab, EpochResetIsLogicallyEmptyWithoutRezero) {
  TableSlab s;
  s.reset_uniform(4, 8);
  for (std::uint32_t t = 0; t < 4; ++t) s.insert_at(t, 3, 100 + t);
  const std::uint64_t allocs = s.slab_allocations();
  s.reset_uniform(4, 8);  // same shape: epoch bump only
  EXPECT_EQ(s.slab_allocations(), allocs) << "same-shape reset must not grow";
  for (std::uint32_t t = 0; t < 4; ++t) {
    EXPECT_EQ(s.count(t), 0u);
    EXPECT_FALSE(s.contains_at(t, 3, 100 + t)) << "stale word leaked";
    std::uint32_t visits = 0;
    s.for_each(t, [&](graph::VertexId) { ++visits; });
    EXPECT_EQ(visits, 0u);
  }
  // The emptied table accepts the same fills again.
  EXPECT_EQ(s.insert_at(2, 3, 9), Insert::kNew);
  EXPECT_TRUE(s.contains_at(2, 3, 9));
}

TEST(TableSlab, VariableCapacitiesIncludingAbsentTables) {
  TableSlab s;
  const std::vector<std::uint32_t> caps = {4, 0, 16, 1, 0, 7};
  s.reset_variable(caps);
  ASSERT_EQ(s.num_tables(), caps.size());
  for (std::size_t t = 0; t < caps.size(); ++t) {
    EXPECT_EQ(s.capacity(static_cast<std::uint32_t>(t)), caps[t]);
    EXPECT_EQ(s.count(static_cast<std::uint32_t>(t)), 0u);
  }
  // Absent tables answer every query as empty.
  EXPECT_FALSE(s.contains_at(1, 0, 5));
  s.insert_at(2, 9, 77);
  s.insert_at(5, 6, 66);
  EXPECT_TRUE(s.contains_at(2, 9, 77));
  EXPECT_TRUE(s.contains_at(5, 6, 66));
  EXPECT_EQ(s.count(2), 1u);
  EXPECT_EQ(s.count(5), 1u);
}

TEST(TableSlab, SnapshotIteratesInCellOrder) {
  TableSlab s;
  s.reset_uniform(3, 8);
  s.insert_at(1, 6, 60);
  s.insert_at(1, 2, 20);
  s.insert_at(2, 0, 5);
  std::vector<std::uint64_t> snap;
  s.snapshot_into(snap);
  // Mutate the live table after the snapshot: the snapshot must not move.
  s.insert_at(1, 4, 40);
  std::vector<graph::VertexId> seen;
  s.for_each_in(snap, 1, [&](graph::VertexId v) { seen.push_back(v); });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 20u);  // cell order
  EXPECT_EQ(seen[1], 60u);
  seen.clear();
  s.for_each_in(snap, 0, [&](graph::VertexId v) { seen.push_back(v); });
  EXPECT_TRUE(seen.empty());
}

// ---- 2. Randomized differential: slab vs flat table, bit for bit.
//
// 10k seeded fill sequences over mixed shapes. Every operation's outcome
// must agree between the layouts — Insert result, running count, collided
// flag — and the final cell images must be identical.

TEST(TableSlabDifferential, MatchesFlatTableOver10kSeededSequences) {
  constexpr int kSequences = 10000;
  for (int seq = 0; seq < kSequences; ++seq) {
    const std::uint64_t seed = util::mix64(0xd1f, seq);
    // Capacity 1..32 exercises sub-line power-of-two strides and multi-line
    // buckets alike.
    const auto cap =
        static_cast<std::uint32_t>(1 + util::mix64(seed, 1) % 32);
    const auto ops = static_cast<std::uint32_t>(1 + util::mix64(seed, 2) % 48);
    FlatTable flat(cap);
    TableSlab slab;
    slab.reset_uniform(1, cap);
    for (std::uint32_t i = 0; i < ops; ++i) {
      const auto cell =
          static_cast<std::uint32_t>(util::mix64(seed, 3 + 2 * i) % cap);
      // Small vertex range so kPresent and kCollision both occur often.
      const auto w = static_cast<graph::VertexId>(
          util::mix64(seed, 4 + 2 * i) % (cap + 3));
      ASSERT_EQ(slab.insert_at(0, cell, w), flat.insert_at(cell, w))
          << "seq " << seq << " op " << i;
      ASSERT_EQ(slab.count(0), flat.count) << "seq " << seq << " op " << i;
      ASSERT_EQ(slab.collided(0), flat.collided)
          << "seq " << seq << " op " << i;
    }
    ASSERT_EQ(slab.cells(0), flat.cells) << "seq " << seq;
    std::vector<graph::VertexId> items;
    for (graph::VertexId w : flat.cells)
      if (w != graph::kInvalidVertex) items.push_back(w);
    ASSERT_EQ(TableView(&slab, 0).items(), items) << "seq " << seq;
  }
}

// ---- 3. Thread-invariance sweeps for the parallel in-bucket radix sort.
//
// dedup_arcs (core bucketed path) and the LT-family ALTER dedup both pick
// comparison vs radix per bucket by size alone; the sweeps assert the
// output is byte-identical at 1/2/4/8 lanes across every backend.

std::vector<Arc> make_dup_heavy_arcs(std::uint64_t n, std::uint64_t seed) {
  // 6n arcs over n vertices with forced duplicates and varied orig ids —
  // large enough for the bucketed path and for many buckets to cross
  // kRadixSortCutoff.
  auto el = graph::make_gnm(n, 2 * n, seed);
  auto half = arcs_from_input(el);
  std::vector<Arc> arcs = half;
  arcs.insert(arcs.end(), half.rbegin(), half.rend());
  arcs.insert(arcs.end(), half.begin(), half.end());
  return arcs;
}

TEST_F(BackendInvariance, DedupRadixThreadInvariantAcrossBackends) {
  const auto base = make_dup_heavy_arcs(1 << 15, 11);
  auto reference = base;
  {
    util::set_parallel_backend(util::ParallelBackend::kSerial);
    dedup_arcs(reference);
  }
  ASSERT_FALSE(reference.empty());
  for (util::ParallelBackend backend :
       {util::ParallelBackend::kPool, util::ParallelBackend::kSerial}) {
    util::set_parallel_backend(backend);
    for (int threads : {1, 2, 4, 8}) {
      util::set_parallelism(threads);
      auto arcs = base;
      dedup_arcs(arcs);
      ASSERT_EQ(arcs.size(), reference.size())
          << util::parallel_backend_name() << " @ " << threads;
      for (std::size_t i = 0; i < arcs.size(); ++i) {
        ASSERT_EQ(arcs[i].u, reference[i].u)
            << util::parallel_backend_name() << " @ " << threads << " i=" << i;
        ASSERT_EQ(arcs[i].v, reference[i].v)
            << util::parallel_backend_name() << " @ " << threads << " i=" << i;
        ASSERT_EQ(arcs[i].orig, reference[i].orig)
            << util::parallel_backend_name() << " @ " << threads << " i=" << i;
      }
    }
  }
}

TEST_F(BackendInvariance, LtAlterDedupThreadInvariantAcrossBackends) {
  // A graph whose ALTER rounds produce edge lists above the bucketed-dedup
  // cutoff, so the radix path engages. Labels must be bit-identical for
  // every (backend, threads) pair.
  const auto el = graph::make_gnm(1 << 14, 1 << 16, 23);
  const baselines::LtVariant variant{baselines::LtConnect::kExtended,
                                     baselines::LtShortcut::kSingle, true};
  std::vector<graph::VertexId> reference;
  for (util::ParallelBackend backend :
       {util::ParallelBackend::kSerial, util::ParallelBackend::kPool}) {
    util::set_parallel_backend(backend);
    for (int threads : {1, 2, 4, 8}) {
      util::set_parallelism(threads);
      auto result = baselines::liu_tarjan_variant(el, variant);
      if (reference.empty()) {
        reference = result.labels;
        ASSERT_TRUE(logcc::testing::matches_oracle(el, reference));
      } else {
        ASSERT_EQ(result.labels, reference)
            << util::parallel_backend_name() << " @ " << threads;
      }
    }
  }
}

}  // namespace
}  // namespace logcc::core
