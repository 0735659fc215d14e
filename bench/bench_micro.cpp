// M1 — building-block micro benchmarks (google-benchmark).
//
// Covers the primitives every round of the paper's algorithms is built
// from: pairwise-independent hashing, table inserts, SHORTCUT, ALTER,
// approximate compaction, arc dedup. Useful for spotting constant-factor
// regressions; the asymptotic claims live in the F/T benches.
#include <benchmark/benchmark.h>

#include <atomic>

#include "core/building_blocks.hpp"
#include "core/round_arena.hpp"
#include "core/table_slab.hpp"
#include "core/compact.hpp"
#include "core/expand.hpp"
#include "core/expand_maxlink.hpp"
#include "core/hash_table.hpp"
#include "core/labels.hpp"
#include "core/vote.hpp"
#include "graph/generators.hpp"
#include "graph/graph_algos.hpp"
#include "serve/connectivity_engine.hpp"
#include "util/arena.hpp"
#include "util/hashing.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"
#include "util/scan.hpp"

namespace {

using namespace logcc;

// Ambient runtime configuration, captured lazily on first use (function-
// local statics, NOT namespace-scope initializers: those would race the
// cross-TU dynamic initialization of parallel.cpp's own globals). Guards
// force the capture in their constructors, before mutating anything.
int default_threads() {
  static const int threads = util::hardware_parallelism();
  return threads;
}
util::ParallelBackend default_backend() {
  static const util::ParallelBackend backend = util::parallel_backend();
  return backend;
}

/// Applies the benchmark's thread-count argument (range(1)) for its run.
struct ThreadGuard {
  explicit ThreadGuard(int threads) {
    default_threads();  // pin the ambient value before changing it
    util::set_parallelism(threads);
  }
  ~ThreadGuard() { util::set_parallelism(default_threads()); }
};

/// Pins a dispatch backend for one benchmark run (pool vs serial
/// comparisons).
struct BackendGuard {
  explicit BackendGuard(util::ParallelBackend b) {
    default_threads();  // capture both ambients before the backend switch
    default_backend();
    util::set_parallel_backend(b);
  }
  ~BackendGuard() { util::set_parallel_backend(default_backend()); }
};

void BM_PairwiseHash(benchmark::State& state) {
  auto h = util::PairwiseHash::from_seed(42);
  std::uint64_t x = 0, acc = 0;
  for (auto _ : state) {
    acc ^= h(++x, 1024);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_PairwiseHash);

void BM_TableInsert(benchmark::State& state) {
  const std::uint32_t cap = static_cast<std::uint32_t>(state.range(0));
  auto h = util::PairwiseHash::from_seed(7);
  core::VertexTable t(cap);
  std::uint32_t v = 0;
  for (auto _ : state) {
    if (v % cap == 0) t.reset(cap);
    t.insert_at(static_cast<std::uint32_t>(h(v, cap)), v);
    ++v;
  }
  benchmark::DoNotOptimize(t.count());
}
BENCHMARK(BM_TableInsert)->Arg(64)->Arg(4096);

void BM_VertexTableReset(benchmark::State& state) {
  // Arg 0: reset at the SAME capacity — a generation-stamp bump, O(1) in
  // the table size. Arg 1: alternating capacities — the full re-assign
  // path every call. The gap is the win of the epoch reset.
  const std::uint32_t cap = 1 << 16;
  const bool alternate = state.range(0) != 0;
  core::VertexTable t(cap);
  std::uint32_t flip = 0;
  for (auto _ : state) {
    t.reset(alternate && (++flip & 1) ? cap + 1 : cap);
    benchmark::DoNotOptimize(t.capacity());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VertexTableReset)->Arg(0)->Arg(1);

void BM_TableSlabFillThreaded(benchmark::State& state) {
  // Bucketized table fill: one epoch-bump reset of the whole slab plus the
  // hashed-insert write pattern of an EXPAND seeding pass. Memory-bound —
  // bytes/sec is the number to watch across thread counts.
  const std::uint32_t num = static_cast<std::uint32_t>(state.range(0));
  ThreadGuard guard(static_cast<int>(state.range(1)));
  constexpr std::uint32_t kCap = 8;
  auto h = util::PairwiseHash::from_seed(11);
  core::TableSlab slab;
  for (auto _ : state) {
    slab.reset_uniform(num, kCap);
    util::parallel_for(0, num, [&](std::size_t t) {
      const auto t32 = static_cast<std::uint32_t>(t);
      for (std::uint32_t j = 0; j < 4; ++j) {
        const auto w = static_cast<graph::VertexId>(util::mix64(t, j) %
                                                    (8ull * num));
        slab.insert_at(t32, static_cast<std::uint32_t>(h(w, kCap)), w);
      }
    });
    benchmark::DoNotOptimize(slab.slab_words());
  }
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<std::int64_t>(slab.slab_words() * sizeof(std::uint64_t)));
}
BENCHMARK(BM_TableSlabFillThreaded)
    ->Args({1 << 17, 1})
    ->Args({1 << 17, 8})
    ->UseRealTime();

void BM_Shortcut(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  core::ParentForest base(n);
  for (graph::VertexId v = 1; v < n; ++v) base.set_parent(v, v - 1);
  for (auto _ : state) {
    core::ParentForest f = base;
    f.shortcut();
    benchmark::DoNotOptimize(f.parent(static_cast<graph::VertexId>(n - 1)));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Shortcut)->Arg(1 << 12)->Arg(1 << 16);

void BM_Flatten(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  core::ParentForest base(n);
  for (graph::VertexId v = 1; v < n; ++v) base.set_parent(v, v - 1);
  for (auto _ : state) {
    core::ParentForest f = base;
    f.flatten();
    benchmark::DoNotOptimize(f.parent(static_cast<graph::VertexId>(n - 1)));
  }
}
BENCHMARK(BM_Flatten)->Arg(1 << 12);

void BM_Alter(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  auto el = graph::make_gnm(n, 4 * n, 3);
  auto arcs = core::arcs_from_input(el);
  core::ParentForest f(n);
  for (graph::VertexId v = 0; v < n; ++v) f.set_parent(v, v / 2);
  for (auto _ : state) {
    auto copy = arcs;
    core::alter(copy, f);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * arcs.size());
}
BENCHMARK(BM_Alter)->Arg(1 << 12);

void BM_DedupArcs(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  auto el = graph::make_gnm(n, 4 * n, 5);
  const auto half = core::arcs_from_input(el);
  auto arcs = half;
  arcs.insert(arcs.end(), half.begin(), half.end());  // force duplicates
  for (auto _ : state) {
    auto copy = arcs;
    core::dedup_arcs(copy);
    benchmark::DoNotOptimize(copy.size());
  }
}
BENCHMARK(BM_DedupArcs)->Arg(1 << 12);

// ---- Threaded variants of the phase-loop hot path. Args are {n, threads};
// items/sec makes the speedup visible in the bench JSON (compare the same n
// across thread counts).

void BM_AlterThreaded(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  ThreadGuard guard(static_cast<int>(state.range(1)));
  auto el = graph::make_gnm(n, 4 * n, 3);
  auto arcs = core::arcs_from_input(el);
  core::ParentForest f(n);
  for (graph::VertexId v = 0; v < n; ++v) f.set_parent(v, v / 2);
  for (auto _ : state) {
    core::alter(arcs, f);
    benchmark::DoNotOptimize(arcs.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(arcs.size()));
}
BENCHMARK(BM_AlterThreaded)
    ->Args({1 << 20, 1})
    ->Args({1 << 20, 4})
    ->Args({1 << 20, 8})
    ->UseRealTime();

void BM_ShortcutThreaded(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  ThreadGuard guard(static_cast<int>(state.range(1)));
  core::ParentForest f(n);
  for (graph::VertexId v = 1; v < n; ++v) f.set_parent(v, v / 2);
  // Steady state after ~log n calls: every later iteration is one full
  // synchronous pass over n pointers (the phase-loop cost being measured).
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.shortcut());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  // One pointer read + one write per vertex (memory-bound).
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(n) *
                          2 * sizeof(graph::VertexId));
}
BENCHMARK(BM_ShortcutThreaded)
    ->Args({1 << 20, 1})
    ->Args({1 << 20, 4})
    ->Args({1 << 20, 8})
    ->UseRealTime();

void BM_DedupArcsThreaded(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  ThreadGuard guard(static_cast<int>(state.range(1)));
  auto el = graph::make_gnm(n, 2 * n, 5);
  const auto half = core::arcs_from_input(el);
  auto arcs = half;
  arcs.insert(arcs.end(), half.begin(), half.end());  // force duplicates
  for (auto _ : state) {
    auto copy = arcs;
    core::dedup_arcs(copy);
    benchmark::DoNotOptimize(copy.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(arcs.size()));
  // Scatter + in-bucket radix passes + pack all stream the arc array
  // (memory-bound).
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(arcs.size()) *
                          sizeof(core::Arc));
}
BENCHMARK(BM_DedupArcsThreaded)
    ->Args({1 << 19, 1})
    ->Args({1 << 19, 4})
    ->Args({1 << 19, 8})
    ->UseRealTime();

void BM_CollectOngoingThreaded(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  ThreadGuard guard(static_cast<int>(state.range(1)));
  auto el = graph::make_gnm(n, 4 * n, 7);
  auto arcs = core::arcs_from_input(el);
  core::ParentForest f(n);
  std::vector<std::uint64_t> scratch;
  std::vector<graph::VertexId> ongoing;
  for (auto _ : state) {
    core::collect_ongoing(f, arcs, scratch, ongoing);
    benchmark::DoNotOptimize(ongoing.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(arcs.size()));
}
BENCHMARK(BM_CollectOngoingThreaded)
    ->Args({1 << 19, 1})
    ->Args({1 << 19, 4})
    ->Args({1 << 19, 8})
    ->UseRealTime();

void BM_GroupByThreaded(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ThreadGuard guard(static_cast<int>(state.range(1)));
  const std::size_t num_keys = n / 4;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> items(n);
  for (std::size_t i = 0; i < n; ++i)
    items[i] = {static_cast<std::uint32_t>(util::mix64(5, i) % num_keys),
                static_cast<std::uint32_t>(i)};
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  for (auto _ : state) {
    auto off = util::parallel_group_by(
        items, out, num_keys, [](const auto& p) { return p.first; });
    benchmark::DoNotOptimize(off.back());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  // Partition pass + in-bucket counting-sort scatter: each item moves
  // twice (memory-bound).
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(n) *
                          2 * sizeof(items[0]));
}
BENCHMARK(BM_GroupByThreaded)
    ->Args({1 << 20, 1})
    ->Args({1 << 20, 4})
    ->Args({1 << 20, 8})
    ->UseRealTime();

void BM_ExpandRunThreaded(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  ThreadGuard guard(static_cast<int>(state.range(1)));
  auto el = graph::make_gnm(n, 3 * n, 9);
  auto arcs = core::arcs_from_input(el);
  core::drop_loops(arcs);
  std::vector<graph::VertexId> ongoing(n);
  for (graph::VertexId v = 0; v < n; ++v) ongoing[v] = v;
  core::ExpandParams p;
  p.block_count = 4 * n + 7;
  p.table_capacity = 8;
  p.seed = 42;
  p.max_rounds = 16;
  core::ExpandScratch scratch;
  for (auto _ : state) {
    core::RunStats stats;
    core::ExpandEngine engine(n, ongoing, arcs, p, stats, &scratch);
    engine.run();
    benchmark::DoNotOptimize(engine.rounds());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(arcs.size()));
}
BENCHMARK(BM_ExpandRunThreaded)
    ->Args({1 << 16, 1})
    ->Args({1 << 16, 4})
    ->Args({1 << 16, 8})
    ->UseRealTime();

void BM_VoteThreaded(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  ThreadGuard guard(static_cast<int>(state.range(1)));
  auto el = graph::make_gnm(n, 3 * n, 15);
  auto arcs = core::arcs_from_input(el);
  core::drop_loops(arcs);
  std::vector<graph::VertexId> ongoing(n);
  for (graph::VertexId v = 0; v < n; ++v) ongoing[v] = v;
  core::ExpandParams p;
  p.block_count = 4 * n + 7;
  p.table_capacity = 8;
  p.seed = 42;
  p.max_rounds = 16;
  core::RunStats stats;
  core::ExpandEngine engine(n, ongoing, arcs, p, stats);
  engine.run();
  core::VoteParams vp;
  vp.dormant_leader_prob = 0.3;
  vp.seed = 3;
  for (auto _ : state) {
    core::RunStats s;
    auto leader = core::vote(engine, vp, s);
    benchmark::DoNotOptimize(leader.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_VoteThreaded)
    ->Args({1 << 18, 1})
    ->Args({1 << 18, 4})
    ->Args({1 << 18, 8})
    ->UseRealTime();

void BM_MaxlinkRoundThreaded(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  ThreadGuard guard(static_cast<int>(state.range(1)));
  auto el = graph::make_gnm(n, 3 * n, 21);
  auto arcs = core::arcs_from_input(el);
  std::vector<std::uint8_t> exists(n, 1);
  auto policy = core::ParamPolicy::practical(n, el.edges.size());
  for (auto _ : state) {
    state.PauseTiming();
    core::RunStats stats;
    core::ExpandMaxlink engine(n, arcs, exists, policy, 17, stats);
    state.ResumeTiming();
    engine.round();
    benchmark::DoNotOptimize(engine.rounds_run());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(arcs.size()));
}
BENCHMARK(BM_MaxlinkRoundThreaded)
    ->Args({1 << 16, 1})
    ->Args({1 << 16, 4})
    ->Args({1 << 16, 8})
    ->UseRealTime();

void BM_PrefixSumThreaded(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ThreadGuard guard(static_cast<int>(state.range(1)));
  std::vector<std::uint64_t> base(n);
  for (std::size_t i = 0; i < n; ++i) base[i] = util::mix64(1, i) & 0xff;
  for (auto _ : state) {
    auto copy = base;
    benchmark::DoNotOptimize(util::parallel_prefix_sum(copy));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  // In-place exclusive scan: one read + one write per word (memory-bound).
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(n) *
                          2 * sizeof(std::uint64_t));
}
BENCHMARK(BM_PrefixSumThreaded)
    ->Args({1 << 20, 1})
    ->Args({1 << 20, 4})
    ->UseRealTime();

// ---- Parallel-runtime microbenchmarks: per-dispatch latency of the pool
// backend (the overhead every PRAM step of every round pays) and the
// round-scratch arena. Args are {n, threads}.

template <util::ParallelBackend kBackend>
void BM_DispatchLatency(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  BackendGuard backend(kBackend);
  ThreadGuard guard(static_cast<int>(state.range(1)));
  // Near-empty body: the measurement is the pool's wake/park cost per
  // parallel_for, amortized per dispatch.
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state) {
    util::parallel_for(0, n, [&](std::size_t i) {
      if (i == 0) sink.fetch_add(1, std::memory_order_relaxed);
    });
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DispatchLatency<util::ParallelBackend::kPool>)
    ->Args({util::kSerialGrain, 4})
    ->Args({util::kSerialGrain, 8})
    ->Args({1 << 16, 8})
    ->UseRealTime();

template <util::ParallelBackend kBackend>
void BM_DispatchBlocks(benchmark::State& state) {
  BackendGuard backend(kBackend);
  ThreadGuard guard(static_cast<int>(state.range(1)));
  const std::size_t blocks = static_cast<std::size_t>(state.range(0));
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state) {
    util::parallel_for_blocks(blocks, [&](std::size_t b) {
      if (b == 0) sink.fetch_add(1, std::memory_order_relaxed);
    });
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DispatchBlocks<util::ParallelBackend::kPool>)
    ->Args({64, 8})
    ->UseRealTime();

// ---- Reader scaling of the serving engine's query path. Each reader
// thread answers seeded random pairs through engine.connected(), which
// reads the thread's cached snapshot slot; the twin answers the same pairs
// on a snapshot each thread holds, the ceiling for any query path.
// items/s is the total over all readers. One engine, built once on first
// use: n = 10^6 after 10^6 random edges, no writer.

const serve::ConnectivityEngine& query_engine() {
  static const auto engine = [] {
    constexpr std::uint64_t kN = 1'000'000;
    auto e = std::make_unique<serve::ConnectivityEngine>(kN);
    e->apply_batch(graph::make_gnm(kN, kN, 5).edges);
    return e;
  }();
  return *engine;
}

/// One seeded pair per iteration, reduced into [0, n) by multiply-shift.
template <typename Query>
void run_queries(benchmark::State& state, std::uint64_t n,
                 const Query& query) {
  const auto seed = static_cast<std::uint64_t>(state.thread_index());
  std::uint64_t i = 0;
  std::uint64_t hits = 0;
  for (auto _ : state) {
    const std::uint64_t x = util::mix64(seed, i++);
    hits += query(static_cast<graph::VertexId>(((x & 0xFFFFFFFFu) * n) >> 32),
                  static_cast<graph::VertexId>(((x >> 32) * n) >> 32));
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
}

void BM_EngineQueriesThreaded(benchmark::State& state) {
  const auto& engine = query_engine();
  run_queries(state, engine.num_vertices(),
              [&](graph::VertexId u, graph::VertexId v) {
                return engine.connected(u, v);
              });
}
BENCHMARK(BM_EngineQueriesThreaded)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->UseRealTime();

void BM_HeldSnapshotQueriesThreaded(benchmark::State& state) {
  const auto snapshot = query_engine().snapshot();
  run_queries(state, snapshot->num_vertices(),
              [&](graph::VertexId u, graph::VertexId v) {
                return snapshot->connected(u, v);
              });
}
BENCHMARK(BM_HeldSnapshotQueriesThreaded)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->UseRealTime();

void BM_ArenaAllocReset(benchmark::State& state) {
  // One simulated round: the scratch-request mix of a mid-size phase
  // (partials, counting grid, pack staging), then reset. Steady state is
  // pure pointer bumps — compare against BM_RoundScratchHeap.
  util::MonotonicArena arena;
  for (auto _ : state) {
    auto partials = arena.alloc<std::uint64_t>(256);
    auto grid = arena.alloc_zero<std::uint64_t>(256 * 64);
    auto staging = arena.alloc<std::uint64_t>(1 << 15);
    benchmark::DoNotOptimize(partials.data());
    benchmark::DoNotOptimize(grid.data());
    benchmark::DoNotOptimize(staging.data());
    arena.reset();
  }
}
BENCHMARK(BM_ArenaAllocReset);

void BM_RoundScratchHeap(benchmark::State& state) {
  // The same request mix served by the heap (what every round paid before
  // the arena).
  for (auto _ : state) {
    std::vector<std::uint64_t> partials(256);
    std::vector<std::uint64_t> grid(256 * 64, 0);
    std::vector<std::uint64_t> staging(1 << 15);
    benchmark::DoNotOptimize(partials.data());
    benchmark::DoNotOptimize(grid.data());
    benchmark::DoNotOptimize(staging.data());
  }
}
BENCHMARK(BM_RoundScratchHeap);

void BM_PackThreadedArena(benchmark::State& state) {
  // parallel_pack with the round arena active: steady-state rounds stage
  // through retained arena bytes instead of a fresh vector.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ThreadGuard guard(static_cast<int>(state.range(1)));
  core::RoundArena arena;
  core::RoundArena::Scope scope(arena);
  std::vector<std::uint64_t> base(n);
  for (std::size_t i = 0; i < n; ++i) base[i] = util::mix64(2, i);
  std::vector<std::uint64_t> work;
  for (auto _ : state) {
    util::scratch_arena_round_reset();
    work = base;
    util::parallel_pack(work, [](std::uint64_t x) { return (x & 3) != 0; });
    benchmark::DoNotOptimize(work.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  // Flag scan + staged compaction copy (memory-bound).
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(n) *
                          2 * sizeof(std::uint64_t));
}
BENCHMARK(BM_PackThreadedArena)
    ->Args({1 << 20, 1})
    ->Args({1 << 20, 8})
    ->UseRealTime();

void BM_ApproximateCompaction(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  std::vector<std::uint8_t> flags(n, 0);
  util::Xoshiro256 rng(9);
  for (std::uint64_t i = 0; i < n; ++i) flags[i] = rng.bernoulli(0.3);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    auto slots = core::approximate_compaction_vec(flags, ++seed);
    benchmark::DoNotOptimize(slots.has_value());
  }
}
BENCHMARK(BM_ApproximateCompaction)->Arg(1 << 12)->Arg(1 << 16);

void BM_BfsOracle(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  auto el = graph::make_gnm(n, 4 * n, 11);
  auto g = graph::Graph::from_edges(el);
  for (auto _ : state) {
    auto labels = graph::bfs_components(g);
    benchmark::DoNotOptimize(labels.data());
  }
}
BENCHMARK(BM_BfsOracle)->Arg(1 << 14);

}  // namespace
