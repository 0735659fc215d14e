// The serving path: a durable ConnectivityEngine fed an edge stream in
// fixed batches by one writer while one closed-loop reader queries it, then
// recovered from its directory.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "serve/connectivity_engine.hpp"

namespace perfbench {

struct ServePlan {
  std::uint64_t n = 0;  // vertex universe of the stream
  std::uint64_t batch_edges = 1000;
  std::uint64_t warmup_batches = 16;
  std::uint64_t timed_batches = 1024;  // ten samples beyond p99
  /// cc_serve's default cadence. warmup + timed batches end half-way
  /// between two checkpoints, so every recovery replays a WAL suffix.
  std::uint64_t checkpoint_every = 32;
  int recover_reps = 7;

  std::uint64_t total_batches() const { return warmup_batches + timed_batches; }
  std::uint64_t total_edges() const { return total_batches() * batch_edges; }
};

/// cc_serve's defaults: WAL fsync after every batch, a checkpoint every
/// `checkpoint_every` batches, no verify cadence (verification runs once,
/// untimed, after the window).
logcc::serve::EngineOptions engine_options(const ServePlan& plan,
                                           const std::string& dir,
                                           std::uint64_t seed);

/// One set-up: engine open on the (empty) durable `dir` plus the warm-up
/// prefix of batches.
bool setup_serve(const ServePlan& plan,
                 std::span<const logcc::graph::Edge> stream,
                 const std::string& dir, std::uint64_t seed, Tally& tally,
                 std::unique_ptr<logcc::serve::ConnectivityEngine>* out);

struct ServeResult {
  std::vector<double> apply_ms;       // writer CPU time of each timed batch
  std::vector<double> apply_wall_ms;  // BatchResult::seconds of each
  Elapsed writer;                     // the whole timed window
  std::uint64_t edges = 0;
  std::uint64_t queries = 0;
  Elapsed reader;  // reader time inside connected() chunks
  std::vector<Elapsed> recover;
  std::uint64_t merge_rounds = 0;
  std::uint64_t merges = 0;
  std::uint64_t replayed_records = 0;
  std::uint64_t components = 0;
  /// Peak RSS when the window ends, before the untimed checks (the
  /// benchmark's own work) and the recoveries.
  double window_peak_rss_mib = 0.0;
};

/// The timed window, the untimed checks after it, and the recovery reps.
/// With a span log the writer also times the side calls of each serve
/// layer and the reader block-times snapshot() and held-snapshot queries;
/// those per-layer metrics are appended to `trace_metrics`.
ServeResult run_serve(const ServePlan& plan,
                      std::span<const logcc::graph::Edge> stream,
                      const std::string& dir, std::uint64_t seed,
                      std::unique_ptr<logcc::serve::ConnectivityEngine> engine,
                      SpanLog* log, Tally& tally, Metrics* trace_metrics);

}  // namespace perfbench
