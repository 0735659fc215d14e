// ConnectivityEngine: the incremental serving layer (PR 7).
//
// The load-bearing claim: after EVERY batch, the engine's published
// ComponentIndex is *bit-identical* (labels, sizes, count) to a full
// batch-algorithm recompute over the accumulated edges — for every
// backend (pool / serial) and thread count (1/2/4/8). Both sides
// are canonical min-id snapshots, so the comparison is exact equality,
// not merely same-partition.
//
// On top of that: epoch-swap reader semantics (queries never see a
// half-merged state; old snapshots stay valid; a query reports the epoch
// of the snapshot that answered it), fail-soft point queries, the
// rebuild/verify cadence, and concurrent reader/writer scenarios the TSan
// CI job race-checks.
#include "serve/connectivity_engine.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/graph_algos.hpp"
#include "test_support.hpp"
#include "util/random.hpp"

namespace logcc {
namespace {

using graph::Edge;
using graph::VertexId;
using logcc::testing::BackendInvariance;
using logcc::testing::ThreadInvariance;
using serve::ConnectivityEngine;
using serve::EngineOptions;

std::vector<std::span<const Edge>> batches_of(const graph::EdgeList& el,
                                              std::size_t batch_size) {
  std::vector<std::span<const Edge>> out;
  std::span<const Edge> all(el.edges);
  for (std::size_t off = 0; off < all.size(); off += batch_size)
    out.push_back(all.subspan(off, std::min(batch_size, all.size() - off)));
  return out;
}

core::ComponentIndex recompute(std::uint64_t n, std::span<const Edge> edges,
                               Algorithm alg = Algorithm::kFasterCC) {
  return connected_components(graph::ArcsInput::from_edges(n, edges), alg)
      .index;
}

TEST(Serve, SingletonsBeforeFirstBatch) {
  ConnectivityEngine engine(5);
  EXPECT_EQ(engine.component_count(), 5u);
  EXPECT_EQ(engine.epoch(), 1u);
  EXPECT_FALSE(engine.connected(0, 4));
  EXPECT_TRUE(engine.connected(2, 2));
  EXPECT_EQ(engine.component_of(3), 3u);
  EXPECT_EQ(engine.component_size(3), 1u);
}

TEST(Serve, IncrementalMatchesRecomputeAfterEveryBatch) {
  const auto el = graph::make_gnm(500, 1500, 17);
  ConnectivityEngine engine(el.n);
  std::uint64_t applied = 0, total_merges = 0;
  for (auto batch : batches_of(el, 97)) {
    auto res = engine.apply_batch(batch);
    applied += batch.size();
    total_merges += res.merges;
    EXPECT_EQ(res.edges, batch.size());
    EXPECT_FALSE(res.verify_ran);
    const auto full =
        recompute(el.n, std::span<const Edge>(el.edges).first(applied));
    ASSERT_TRUE(*engine.snapshot() == full)
        << "incremental snapshot diverges after batch " << res.batch;
  }
  EXPECT_EQ(engine.num_edges(), el.edges.size());
  // Merge accounting: components lost across all batches = n - final count.
  EXPECT_EQ(total_merges, el.n - engine.component_count());
}

TEST(Serve, QueriesAgreeWithOracle) {
  const auto el =
      graph::disjoint_union({graph::make_path(6), graph::make_cycle(5)});
  ConnectivityEngine engine(el.n);
  engine.apply_batch(el.edges);
  EXPECT_EQ(engine.component_count(), 2u);
  EXPECT_TRUE(engine.connected(0, 5));
  EXPECT_FALSE(engine.connected(0, 6));
  EXPECT_EQ(engine.component_of(8), 6u);
  EXPECT_EQ(engine.component_size(0), 6u);
  EXPECT_EQ(engine.component_size(10), 5u);
}

TEST(Serve, ToleratesSelfLoopsDuplicatesAndEmptyBatches) {
  ConnectivityEngine engine(4);
  std::vector<Edge> weird{{0, 0}, {1, 2}, {2, 1}, {1, 2}, {3, 3}};
  auto r1 = engine.apply_batch(weird);
  EXPECT_EQ(r1.merges, 1u);
  EXPECT_EQ(engine.component_count(), 3u);
  // An empty batch is a no-op epoch (steady-state fixpoint probe: 0 rounds).
  auto r2 = engine.apply_batch({});
  EXPECT_EQ(r2.rounds, 0u);
  EXPECT_EQ(r2.merges, 0u);
  // Re-inserting internal edges merges nothing and costs zero rounds.
  auto r3 = engine.apply_batch(std::vector<Edge>{{1, 2}, {2, 2}});
  EXPECT_EQ(r3.rounds, 0u);
  EXPECT_EQ(engine.component_count(), 3u);
  EXPECT_TRUE(*engine.snapshot() ==
              recompute(4, engine.edges().edges()));
}

/// Applies one good batch, then one with an out-of-range endpoint: the bad
/// batch must come back rejected with kInvalidArgument and leave the
/// epoch, the batch count, the WAL offset and the snapshot unchanged.
void expect_rejects_out_of_range(ConnectivityEngine& engine) {
  ASSERT_TRUE(engine.apply_batch(std::vector<Edge>{{0, 1}}).applied);
  const std::uint64_t epoch = engine.epoch();
  const std::uint64_t batches = engine.num_batches();
  const std::uint64_t wal_offset = engine.wal_offset();
  const auto before = engine.snapshot();
  const auto r = engine.apply_batch(std::vector<Edge>{{1, 2}, {0, 3}});
  EXPECT_FALSE(r.applied);
  EXPECT_EQ(r.durability.code(), util::StatusCode::kInvalidArgument)
      << r.durability.to_string();
  EXPECT_EQ(engine.epoch(), epoch);
  EXPECT_EQ(engine.num_batches(), batches);
  EXPECT_EQ(engine.wal_offset(), wal_offset);
  EXPECT_TRUE(*engine.snapshot() == *before);
  EXPECT_FALSE(engine.connected(1, 2));  // the valid edge was not applied
}

TEST(Serve, RejectsOutOfRangeEndpoints) {
  ConnectivityEngine engine(3);
  expect_rejects_out_of_range(engine);
}

TEST(Serve, DurableEngineRejectsOutOfRangeEndpointsBeforeTheWal) {
  const std::string dir = ::testing::TempDir() + "logcc_serve_reject";
  auto clean = [&] {
    std::remove((dir + "/edges.wal").c_str());
    std::remove((dir + "/index.ckpt").c_str());
    ::rmdir(dir.c_str());
  };
  clean();  // a crashed earlier run must not seed this one
  EngineOptions opts;
  opts.durability.dir = dir;
  std::unique_ptr<ConnectivityEngine> engine;
  ASSERT_TRUE(ConnectivityEngine::recover(dir, 3, opts, &engine).is_ok());
  ASSERT_GT(engine->wal_offset(), 0u);  // the WAL header is on disk
  expect_rejects_out_of_range(*engine);
  engine.reset();
  clean();
}

TEST(Serve, QueriesRejectOutOfRangeVertices) {
  ConnectivityEngine engine(4);
  ASSERT_TRUE(engine.apply_batch(std::vector<Edge>{{0, 1}}).applied);
  auto expect_rejected = [&](const serve::QueryInfo& info) {
    EXPECT_EQ(info.status.code(), util::StatusCode::kInvalidArgument)
        << info.status.to_string();
    EXPECT_EQ(info.epoch, engine.epoch());
  };
  for (const VertexId bad : {VertexId{4}, graph::kInvalidVertex}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(engine.connected(0, bad));
    EXPECT_FALSE(engine.connected(bad, 1));
    EXPECT_FALSE(engine.connected(bad, bad));
    EXPECT_EQ(engine.component_of(bad), graph::kInvalidVertex);
    EXPECT_EQ(engine.component_size(bad), 0u);
    serve::QueryInfo info;
    EXPECT_FALSE(engine.connected(0, bad, &info));
    expect_rejected(info);
    info = {};
    EXPECT_FALSE(engine.connected(bad, 1, &info));
    expect_rejected(info);
    info = {};
    EXPECT_EQ(engine.component_of(bad, &info), graph::kInvalidVertex);
    expect_rejected(info);
    info = {};
    EXPECT_EQ(engine.component_size(bad, &info), 0u);
    expect_rejected(info);
  }
  // In-range queries through the same QueryInfo report OK again.
  serve::QueryInfo info;
  info.status = util::Status::invalid_argument("stale");
  EXPECT_TRUE(engine.connected(0, 1, &info));
  EXPECT_TRUE(info.status.is_ok());
  EXPECT_EQ(info.epoch, 2u);
  info.status = util::Status::invalid_argument("stale");
  EXPECT_EQ(engine.component_of(1, &info), 0u);
  EXPECT_TRUE(info.status.is_ok());
  info.status = util::Status::invalid_argument("stale");
  EXPECT_EQ(engine.component_size(1, &info), 2u);
  EXPECT_TRUE(info.status.is_ok());
}

TEST(Serve, EpochAdvancesPerBatchAndOldSnapshotsSurvive) {
  ConnectivityEngine engine(4);
  auto before = engine.snapshot();
  engine.apply_batch(std::vector<Edge>{{0, 1}});
  engine.apply_batch(std::vector<Edge>{{2, 3}});
  EXPECT_EQ(engine.epoch(), 3u);  // initial publish + 2 batches
  // The pre-merge snapshot still answers from its own epoch.
  EXPECT_EQ(before->num_components(), 4u);
  EXPECT_FALSE(before->connected(0, 1));
  EXPECT_TRUE(engine.snapshot()->connected(0, 1));
}

// A reader thread's cached view belongs to one engine. An engine built in
// a destroyed engine's storage has the same address and restarts at the
// same epochs, and must still answer with its own state.
TEST(Serve, RebuiltEngineAnswersWithItsOwnState) {
  std::optional<ConnectivityEngine> engine;
  engine.emplace(4);
  engine->apply_batch(std::vector<Edge>{{0, 1}});
  EXPECT_TRUE(engine->connected(0, 1));
  EXPECT_EQ(engine->component_size(1), 2u);
  const void* const address = &*engine;
  engine.reset();
  engine.emplace(4);
  engine->apply_batch(std::vector<Edge>{{2, 3}});
  ASSERT_EQ(&*engine, address);
  ASSERT_EQ(engine->epoch(), 2u);
  serve::QueryInfo info;
  EXPECT_FALSE(engine->connected(0, 1, &info));
  EXPECT_EQ(info.epoch, 2u);
  EXPECT_TRUE(engine->connected(2, 3));
  EXPECT_EQ(engine->component_of(1), 1u);
  EXPECT_EQ(engine->component_size(1), 1u);
  EXPECT_EQ(engine->component_size(3), 2u);
  EXPECT_EQ(engine->snapshot()->component_of(3), 2u);
}

TEST(Serve, VerifyCadenceRunsAndPasses) {
  const auto el = graph::make_gnm(300, 900, 5);
  EngineOptions opts;
  opts.verify_every = 3;
  ConnectivityEngine engine(el.n, opts);
  std::uint64_t verified_epochs = 0;
  for (auto batch : batches_of(el, 50)) {
    auto res = engine.apply_batch(batch);
    EXPECT_EQ(res.verify_ran, res.batch % 3 == 0);
    if (res.verify_ran) {
      ++verified_epochs;
      EXPECT_TRUE(res.verified) << "batch " << res.batch;
    }
  }
  EXPECT_GE(verified_epochs, 5u);
}

TEST(Serve, VerifyAndRebuildAgreesForEveryRebuildAlgorithm) {
  const auto el = graph::make_rmat(8, 1024, 9);
  for (Algorithm alg : all_algorithms()) {
    EngineOptions opts;
    opts.rebuild_algorithm = alg;
    ConnectivityEngine engine(el.n, opts);
    for (auto batch : batches_of(el, 200)) engine.apply_batch(batch);
    const std::uint64_t epoch_before = engine.epoch();
    EXPECT_TRUE(engine.verify_and_rebuild()) << to_string(alg);
    EXPECT_EQ(engine.epoch(), epoch_before + 1) << to_string(alg);
    EXPECT_TRUE(verify_components(engine.edges().input(), *engine.snapshot()))
        << to_string(alg);
  }
}

// The determinism contract, extended to the serving layer: for a given
// batch sequence, every (backend, thread count) pair must publish
// bit-identical snapshots after every batch — and each of them must equal
// the full recompute on the accumulated prefix.
TEST_F(BackendInvariance, ServeSnapshotsBitIdenticalAcrossBackendsAndThreads) {
  const auto el = graph::make_gnm(400, 1200, 29);
  const auto batches = batches_of(el, 64);

  // Reference run (serial @1) with per-batch recompute cross-check.
  std::vector<core::ComponentIndex> reference;
  {
    util::set_parallel_backend(util::ParallelBackend::kSerial);
    util::set_parallelism(1);
    ConnectivityEngine engine(el.n);
    std::uint64_t applied = 0;
    for (auto batch : batches) {
      engine.apply_batch(batch);
      applied += batch.size();
      reference.push_back(*engine.snapshot());
      ASSERT_TRUE(reference.back() ==
                  recompute(el.n,
                            std::span<const Edge>(el.edges).first(applied)));
    }
  }

  for (util::ParallelBackend backend :
       {util::ParallelBackend::kPool, util::ParallelBackend::kSerial}) {
    util::set_parallel_backend(backend);
    for (int threads : {1, 2, 4, 8}) {
      util::set_parallelism(threads);
      ConnectivityEngine engine(el.n);
      for (std::size_t b = 0; b < batches.size(); ++b) {
        auto res = engine.apply_batch(batches[b]);
        ASSERT_TRUE(*engine.snapshot() == reference[b])
            << util::parallel_backend_name() << " @ " << threads
            << " batch " << res.batch;
      }
    }
  }
}

// Round counts are part of the bit-identity contract too (the hook is
// order-invariant min-combining, so convergence takes the same number of
// rounds everywhere).
TEST_F(ThreadInvariance, ServeRoundCountsThreadInvariant) {
  const auto el = graph::make_rmat(9, 2048, 3);
  const auto batches = batches_of(el, 128);
  std::vector<std::uint64_t> reference;
  for (int threads : {1, 2, 4, 8}) {
    util::set_parallelism(threads);
    ConnectivityEngine engine(el.n);
    std::vector<std::uint64_t> rounds;
    for (auto batch : batches) rounds.push_back(engine.apply_batch(batch).rounds);
    if (reference.empty())
      reference = rounds;
    else
      ASSERT_EQ(rounds, reference) << "threads=" << threads;
  }
}

// Concurrent readers against a live writer: the scenario the TSan job
// instruments. Readers must always see a fully-published epoch — labels in
// range, component count between 1 and n, monotonically non-increasing as
// the insert-only writer merges — and never block or crash.
TEST(Serve, ConcurrentReadersSeeOnlyPublishedEpochs) {
  const auto el = graph::make_gnm(2000, 6000, 41);
  ConnectivityEngine engine(el.n);
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> query_count{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t last_count = el.n;
      std::uint64_t q = 0;
      VertexId v = static_cast<VertexId>(t);
      // Keep querying until the writer is done AND a floor of iterations
      // ran, so a fast writer can't finish before any query lands.
      while (!done.load(std::memory_order_acquire) || q < 100) {
        auto s = engine.snapshot();
        ASSERT_EQ(s->num_vertices(), el.n);
        const std::uint64_t count = s->num_components();
        ASSERT_GE(count, 1u);
        ASSERT_LE(count, last_count);  // insert-only: never splits
        last_count = count;
        const VertexId label = s->component_of(v);
        ASSERT_LE(label, v);
        ASSERT_TRUE(s->connected(v, label));
        ASSERT_GE(s->component_size(v), 1u);
        v = (v + 13) % static_cast<VertexId>(el.n);
        ++q;
      }
      query_count.fetch_add(q, std::memory_order_relaxed);
    });
  }
  for (auto batch : batches_of(el, 250)) engine.apply_batch(batch);
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_GT(query_count.load(), 0u);
  EXPECT_TRUE(*engine.snapshot() == recompute(el.n, engine.edges().edges()));
}

// QueryInfo::epoch is the epoch of the snapshot that answered. Batch b adds
// edge (0, b) and publishes epoch b + 1, so connected(0, j) must be true
// exactly when the reported epoch is > j. Readers query the vertices the
// writer is adding right now, where an epoch read apart from the snapshot
// would be off by one.
TEST(Serve, QueryEpochIsTheAnsweringSnapshots) {
  constexpr VertexId kN = 3000;
  ConnectivityEngine engine(kN);
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> wrong{0};
  std::atomic<std::uint64_t> query_count{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t q = 0;
      while (!done.load(std::memory_order_acquire) || q < 100) {
        const std::uint64_t e = engine.epoch() - (q + t) % 2;
        const auto j = static_cast<VertexId>(std::clamp<std::uint64_t>(
            e, 1, kN - 1));
        serve::QueryInfo info;
        const bool answer = engine.connected(0, j, &info);
        if (answer != (info.epoch > j) || !info.status.is_ok())
          wrong.fetch_add(1, std::memory_order_relaxed);
        ++q;
      }
      query_count.fetch_add(q, std::memory_order_relaxed);
    });
  }
  for (VertexId b = 1; b < kN; ++b)
    engine.apply_batch(std::vector<Edge>{{0, b}});
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_GT(query_count.load(), 0u);
  EXPECT_EQ(wrong.load(), 0u) << "of " << query_count.load() << " queries";
  EXPECT_EQ(engine.epoch(), std::uint64_t{kN});
}

// The reader check of the repo's benchmark, under a live writer.
// Connectivity only grows under insertions, so an answer is right iff it
// lies between a snapshot() taken before it and one taken after:
// "connected" must hold in the later one, "not connected" in the earlier.
// That fails if a thread's queries can lag behind a snapshot it already
// took. Batch b adds edge (0, b), so the seeded pairs (0, j) with j near
// the current epoch are the ones whose answer is changing right now.
TEST(Serve, ReaderAnswersLieBetweenItsSnapshots) {
  constexpr VertexId kN = 3000;
  constexpr std::size_t kChunk = 64;
  ConnectivityEngine engine(kN);
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> wrong{0};
  std::atomic<std::uint64_t> query_count{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      std::vector<VertexId> targets(kChunk);
      std::vector<std::uint8_t> answers(kChunk);
      std::uint64_t next = 0;
      std::uint64_t q = 0;
      std::uint64_t my_wrong = 0;
      while (!done.load(std::memory_order_acquire) || q < 1000) {
        const std::uint64_t e = engine.epoch();
        for (VertexId& j : targets) {
          const std::uint64_t x =
              util::mix64(static_cast<std::uint64_t>(t), next++);
          j = static_cast<VertexId>(
              std::clamp<std::uint64_t>(e + x % 16, 8, kN + 7) - 8);
        }
        const auto lo = engine.snapshot();
        for (std::size_t i = 0; i < kChunk; ++i)
          answers[i] = engine.connected(0, targets[i]);
        const auto hi = engine.snapshot();
        for (std::size_t i = 0; i < kChunk; ++i) {
          if (answers[i] ? !hi->connected(0, targets[i])
                         : lo->connected(0, targets[i]))
            ++my_wrong;
        }
        q += kChunk;
      }
      wrong.fetch_add(my_wrong, std::memory_order_relaxed);
      query_count.fetch_add(q, std::memory_order_relaxed);
    });
  }
  for (VertexId b = 1; b < kN; ++b)
    engine.apply_batch(std::vector<Edge>{{0, b}});
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_GT(query_count.load(), 0u);
  EXPECT_EQ(wrong.load(), 0u) << "of " << query_count.load() << " queries";
}

}  // namespace
}  // namespace logcc
