#include "serve.hpp"

#include <malloc.h>

#include <atomic>
#include <cstdio>
#include <numeric>
#include <thread>

#include "baselines/union_find.hpp"
#include "core/component_index.hpp"
#include "serve/checkpoint.hpp"
#include "serve/wal.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

namespace perfbench {

using logcc::core::ComponentIndex;
using logcc::graph::Edge;
using logcc::graph::VertexId;
using logcc::serve::ConnectivityEngine;
namespace serve = logcc::serve;
namespace util = logcc::util;

namespace {

constexpr std::size_t kChunk = 4096;

std::span<const Edge> batch_of(const ServePlan& plan,
                               std::span<const Edge> stream, std::uint64_t b) {
  return stream.subspan(b * plan.batch_edges, plan.batch_edges);
}

/// Closed-loop reader: chunks of connected() calls on seeded random pairs.
/// Connectivity only grows under insertions, so an answer is right iff it
/// lies between a snapshot taken before its chunk and one taken after:
/// "connected" must hold in the later one, "not connected" in the earlier.
struct Reader {
  const ConnectivityEngine& engine;
  std::uint64_t n;
  std::uint64_t seed;
  bool traced;

  std::atomic<bool> started{false};
  std::uint64_t calls = 0;
  std::uint64_t wrong = 0;
  Elapsed busy{};
  std::uint64_t observed = 0;  // folds the traced blocks' results
  // Traced only: (start, end) of snapshot() blocks and held-snapshot
  // connected() blocks of kChunk calls each.
  std::vector<std::pair<Instant, Instant>> snapshot_blocks{}, query_blocks{};

  void run(std::stop_token stop) {
    std::vector<std::pair<VertexId, VertexId>> q(kChunk);
    std::vector<std::uint8_t> ans(kChunk);
    std::uint64_t next = 0;
    started.store(true, std::memory_order_release);
    while (!stop.stop_requested()) {
      for (auto& [u, v] : q) {
        const std::uint64_t x = util::mix64(seed, next++);
        u = static_cast<VertexId>(x % n);
        v = static_cast<VertexId>((x >> 32) % n);
      }
      const auto lo = engine.snapshot();
      const Instant t0 = instant();
      for (std::size_t i = 0; i < kChunk; ++i)
        ans[i] = engine.connected(q[i].first, q[i].second);
      const Elapsed chunk = since(t0);
      const auto hi = engine.snapshot();
      busy.wall += chunk.wall;
      busy.cpu += chunk.cpu;
      calls += kChunk;
      for (std::size_t i = 0; i < kChunk; ++i) {
        const auto [u, v] = q[i];
        if (ans[i] ? !hi->connected(u, v) : lo->connected(u, v)) ++wrong;
      }
      if (!traced) continue;
      const Instant s0 = instant();
      for (std::size_t i = 0; i < kChunk; ++i)
        observed += engine.snapshot()->num_components();
      const Instant s1 = instant();
      const auto held = engine.snapshot();
      for (std::size_t i = 0; i < kChunk; ++i)
        observed += held->connected(q[i].first, q[i].second);
      const Instant s2 = instant();
      snapshot_blocks.emplace_back(s0, s1);
      query_blocks.emplace_back(s1, s2);
    }
  }
};

double per_call_ns(const std::vector<double>& block_s) {
  return util::percentile(block_s, 50) * 1e9 / static_cast<double>(kChunk);
}

}  // namespace

serve::EngineOptions engine_options(const ServePlan& plan,
                                    const std::string& dir,
                                    std::uint64_t seed) {
  serve::EngineOptions opts;
  opts.seed = seed;
  opts.durability.dir = dir;
  opts.durability.wal.fsync = serve::WalFsync::kBatch;
  opts.durability.checkpoint_every = plan.checkpoint_every;
  return opts;
}

bool setup_serve(const ServePlan& plan, std::span<const Edge> stream,
                 const std::string& dir, std::uint64_t seed, Tally& tally,
                 std::unique_ptr<ConnectivityEngine>* out) {
  const util::Status s = ConnectivityEngine::recover(
      dir, plan.n, engine_options(plan, dir, seed), out);
  tally.check(s.is_ok(), "engine open on an empty durable dir");
  if (!s.is_ok()) {
    std::fprintf(stderr, "perfbench: %s\n", s.to_string().c_str());
    return false;
  }
  for (std::uint64_t b = 0; b < plan.warmup_batches; ++b) {
    const auto r = (*out)->apply_batch(batch_of(plan, stream, b));
    tally.check(r.applied && r.durability.is_ok(), "warm-up apply_batch");
  }
  return true;
}

ServeResult run_serve(const ServePlan& plan, std::span<const Edge> stream,
                      const std::string& dir, std::uint64_t seed,
                      std::unique_ptr<ConnectivityEngine> engine, SpanLog* log,
                      Tally& tally, Metrics* trace_metrics) {
  ServeResult out;
  const std::string side_dir = dir + "-side";
  serve::WalWriter side_wal;
  std::uint64_t side_edges = 0;
  if (log != nullptr) {
    make_dirs(side_dir);
    const util::Status s = serve::WalWriter::create(
        side_dir + "/side.wal", plan.n, serve::WalOptions{}, &side_wal);
    tally.check(s.is_ok(), "side WAL create");
  }

  Reader reader{*engine, plan.n, util::mix64(seed, 0x4EAD), log != nullptr};
  {
    std::jthread reader_thread(
        [&reader](std::stop_token st) { reader.run(st); });
    while (!reader.started.load(std::memory_order_acquire))
      std::this_thread::yield();

    const Instant w0 = instant();
    for (std::uint64_t b = plan.warmup_batches; b < plan.total_batches(); ++b) {
      const auto batch = batch_of(plan, stream, b);
      serve::BatchResult r;
      const Instant b0 = instant();
      {
        ScopedSpan span(log, "apply_batch");
        r = engine->apply_batch(batch);
      }
      out.apply_ms.push_back(since(b0).cpu * 1e3);
      out.apply_wall_ms.push_back(r.seconds * 1e3);
      tally.check(r.applied && r.durability.is_ok(), "apply_batch");
      out.merge_rounds += r.rounds;
      out.merges += r.merges;
      out.edges += batch.size();
      if (log == nullptr) continue;

      // Side calls, timed from outside the engine on the same filesystem:
      // the work each serve layer does inside apply_batch.
      Instant t0 = instant();
      const util::Status ws = side_wal.append(batch);
      log->record("wal.append", t0, instant());
      tally.check(ws.is_ok(), "side WAL append");
      side_edges += batch.size();
      if ((b + 1) % plan.checkpoint_every != 0) continue;
      const auto snap = engine->snapshot();
      std::vector<VertexId> labels = snap->labels();
      t0 = instant();
      const ComponentIndex copy =
          ComponentIndex::from_canonical_labels(std::move(labels));
      log->record("component_index.publish", t0, instant());
      tally.check(copy == *snap, "republished snapshot == live snapshot");
      serve::CheckpointState state;
      state.n = plan.n;
      state.labels = snap->labels();
      state.num_components = snap->num_components();
      t0 = instant();
      const util::Status cs =
          serve::write_checkpoint(side_dir + "/side.ckpt", state);
      log->record("checkpoint.write", t0, instant());
      tally.check(cs.is_ok(), "side checkpoint write");
    }
    out.writer = since(w0);
    reader_thread.request_stop();
  }
  out.window_peak_rss_mib = peak_rss_mib();
  out.queries = reader.calls;
  out.reader = reader.busy;
  tally.attempted += reader.calls;
  tally.failed += reader.wrong;
  if (reader.wrong > 0)
    std::fprintf(stderr, "perfbench: FAILED %llu reader answers\n",
                 static_cast<unsigned long long>(reader.wrong));

  // Untimed checks: the engine's own full recompute, and an independent
  // union-find over the ingested prefix.
  const auto final_snapshot = engine->snapshot();
  out.components = final_snapshot->num_components();
  // Freed heap goes back to the OS before verification and before each
  // recovery (a recovering process starts cold), so that neither stacks
  // its own peak on however the reader's and writer's frees happened to
  // fragment the heap.
  malloc_trim(0);
  tally.check(engine->verify_and_rebuild(), "verify_and_rebuild");
  logcc::graph::EdgeList prefix;
  prefix.n = plan.n;
  prefix.edges.assign(stream.begin(), stream.begin() + plan.total_edges());
  tally.check(ComponentIndex::from_labels(
                  logcc::baselines::union_find_cc(prefix).labels) ==
                  *final_snapshot,
              "engine snapshot == union-find over the ingested prefix");
  const double edge_log_mib =
      static_cast<double>(engine->edges().memory_bytes()) / (1 << 20);
  const double resident_mib =
      static_cast<double>(engine->resident_bytes()) / (1 << 20);
  engine.reset();

  for (int k = 0; k < plan.recover_reps; ++k) {
    malloc_trim(0);
    std::unique_ptr<ConnectivityEngine> recovered;
    ConnectivityEngine::RecoveryInfo info;
    const Instant t0 = instant();
    const util::Status s = ConnectivityEngine::recover(
        dir, plan.n, engine_options(plan, dir, seed), &recovered, &info);
    const Elapsed e = since(t0);
    if (log != nullptr) log->record("recover", t0, instant());
    const bool ok = s.is_ok() && *recovered->snapshot() == *final_snapshot &&
                    info.used_checkpoint && info.replayed_records > 0;
    tally.check(ok, "recover == live engine's final snapshot");
    out.recover.push_back(e);
    out.replayed_records = info.replayed_records;
  }

  if (log == nullptr) return out;
  for (int k = 0; k < plan.recover_reps; ++k) {
    serve::CheckpointState state;
    Instant t0 = instant();
    const util::Status rs = serve::read_checkpoint(dir + "/index.ckpt", &state);
    log->record("checkpoint.read", t0, instant());
    tally.check(rs.is_ok(), "read_checkpoint");
    serve::WalScan scan;
    t0 = instant();
    const util::Status ss =
        serve::wal_replay(dir + "/edges.wal", nullptr, &scan);
    log->record("wal.scan", t0, instant());
    tally.check(ss.is_ok() && scan.records == plan.total_batches(),
                "wal_replay scan");
  }
  for (const auto& [a, b] : reader.snapshot_blocks)
    log->record("epoch.snapshot_block", a, b);
  for (const auto& [a, b] : reader.query_blocks)
    log->record("component_index.query_block", a, b);

  // CPU-bound calls are read on the CPU clock like the end-to-end metrics;
  // the calls that wait on the disk (WAL append with fsync, checkpoint
  // write) on the wall clock, because the wait is their cost.
  Metrics& m = *trace_metrics;
  const auto timed = static_cast<std::uint64_t>(out.apply_ms.size());
  auto add_ms = [&](const char* metric, const std::vector<double>& s) {
    m.add(metric, 1e3 * util::percentile(s, 50), "ms", s.size());
  };
  add_ms("component_index.publish_ms",
         log->durations("component_index.publish"));
  m.add("connectivity_engine.merge_rounds",
        static_cast<double>(out.merge_rounds), "count", timed);
  m.add("connectivity_engine.merges", static_cast<double>(out.merges), "count",
        timed);
  const auto appends = log->wall_durations("wal.append");
  m.add("wal.append_us", 1e6 * util::percentile(appends, 50), "us",
        appends.size());
  m.add("wal.bytes_per_edge",
        static_cast<double>(side_wal.offset() - sizeof(serve::WalHeader)) /
            static_cast<double>(side_edges),
        "B/edge", 1);
  add_ms("checkpoint.write_ms", log->wall_durations("checkpoint.write"));
  add_ms("checkpoint.read_ms", log->durations("checkpoint.read"));
  add_ms("wal.scan_ms", log->durations("wal.scan"));
  m.add("connectivity_engine.replayed_records",
        static_cast<double>(out.replayed_records), "count", 1);
  m.add("connectivity_engine.edge_log_mib", edge_log_mib, "MiB", 1);
  m.add("connectivity_engine.resident_mib", resident_mib, "MiB", 1);
  const auto snapshots = log->durations("epoch.snapshot_block");
  m.add("epoch.snapshot_ns", per_call_ns(snapshots), "ns", snapshots.size());
  const auto queries = log->durations("component_index.query_block");
  m.add("component_index.query_ns", per_call_ns(queries), "ns",
        queries.size());

  // Wall-clock companions of the serving metrics. Unlike the CPU clock they
  // include the engine's WAL and checkpoint fsyncs and the writer's waits
  // for a parked lane.
  const double apply_wall_s =
      std::accumulate(out.apply_wall_ms.begin(), out.apply_wall_ms.end(),
                      0.0) /
      1e3;
  m.add("ingest_wall_eps", static_cast<double>(out.edges) / apply_wall_s,
        "edges/s", timed);
  m.add("apply_wall_p50_ms", util::percentile(out.apply_wall_ms, 50), "ms",
        timed);
  m.add("apply_wall_p99_ms", util::percentile(out.apply_wall_ms, 99), "ms",
        timed);
  m.add("query_wall_mqps",
        static_cast<double>(reader.calls) / reader.busy.wall / 1e6, "1e6/s",
        reader.calls);
  std::vector<double> recover_wall;
  for (const Elapsed& e : out.recover) recover_wall.push_back(e.wall);
  m.add("recover_wall_s", util::percentile(recover_wall, 50), "s",
        recover_wall.size());
  side_wal.close();
  remove_tree(side_dir);
  return out;
}

}  // namespace perfbench
