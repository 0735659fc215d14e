// ConnectivityEngine: the long-running incremental side of the repo — the
// "millions of users, heavy traffic" scenario from ROADMAP item 1.
//
// One writer thread feeds batches of edge insertions into a live graph
// (graph::EdgeLog); each batch is merged into the maintained components by
// a multi-threaded min-combining hook + shortcut fixpoint over just the
// batch edges (a Liu–Tarjan-style hook specialized to an always-flat
// forest, flattened by core::shortcut_step, the SHORTCUT step every layer
// shares), running on the repo's scan primitives and thread-pool runtime —
// deterministic per the bit-identity contract: for a given batch sequence
// the labels, rounds, and published snapshots are identical for every
// thread count and backend.
//
// Queries never see the merge: after every batch the engine builds an
// immutable core::ComponentIndex snapshot, pairs it with its epoch number,
// and publishes the pair as one util::EpochPtr store. Every read —
// connected / component_of / component_size / component_count and
// snapshot() — goes through the calling thread's cached slot
// (EpochPtr::read): one acquire load of the epoch word while the epoch
// stands, so readers write no shared cache line and scale with cores, and
// a thread never answers from an epoch older than one it has already
// seen. A QueryInfo reports the epoch of the snapshot that answered; a
// reader holding snapshot() keeps that epoch's view alive for as long as
// it wants. The cost: each reader thread pins the last snapshot it read
// until it reads again or exits. The point queries fail soft: a vertex
// >= n answers false / kInvalidVertex / 0 and sets QueryInfo::status to
// kInvalidArgument.
//
// Trust, then verify: every `verify_every` batches (or on demand) the
// engine recomputes components from scratch through the batch
// connected_components() path on the accumulated edge set and cross-checks
// the incremental index against it — labels, sizes, and count must match
// exactly (both sides are canonical min-id, so equality is bitwise, not
// just partition-equal).
//
// Crash safety (docs/ARCHITECTURE.md "Durability & fault tolerance"): with
// DurabilityOptions::dir set, every batch is appended to a checksummed
// write-ahead log (serve/wal.hpp) BEFORE it is merged, and the flat forest
// is periodically checkpointed (serve/checkpoint.hpp, atomic
// rename-into-place). recover() = load checkpoint + replay the WAL suffix;
// because every merge is bit-deterministic, the recovered ComponentIndex
// equals the never-crashed engine's exactly — the invariant the
// fault-labelled suite enforces by killing the process at every registered
// failpoint.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/component_index.hpp"
#include "core/connectivity.hpp"
#include "graph/edge_log.hpp"
#include "graph/graph.hpp"
#include "serve/checkpoint.hpp"
#include "serve/wal.hpp"
#include "util/epoch.hpp"
#include "util/status.hpp"

namespace logcc::serve {

/// Crash-safety knobs. Durability is on iff `dir` is non-empty; durable
/// engines are constructed through ConnectivityEngine::recover (the plain
/// constructor LOGCC_CHECKs `dir` is empty, because construction can then
/// fail for I/O reasons a constructor cannot report).
struct DurabilityOptions {
  /// Directory holding `edges.wal` and `index.ckpt`. Created if missing.
  std::string dir;
  WalOptions wal;
  /// Write a checkpoint every this many batches (0 = only on
  /// flush_durable(), e.g. clean shutdown). Recovery replays the WAL
  /// suffix past the last checkpoint, so the cadence bounds recovery time,
  /// not durability.
  std::uint64_t checkpoint_every = 0;
};

struct EngineOptions {
  /// Rebuild/verify cadence: after every `verify_every` batches the engine
  /// runs a full recompute and cross-checks the incremental state
  /// (0 = only when verify_and_rebuild() is called explicitly).
  std::uint64_t verify_every = 0;
  /// Batch algorithm the rebuild path runs (any of the 9 entry points).
  Algorithm rebuild_algorithm = Algorithm::kFasterCC;
  std::uint64_t seed = 1;
  DurabilityOptions durability;
};

/// What one apply_batch reports.
struct BatchResult {
  std::uint64_t batch = 0;   // 1-based index of this batch
  std::uint64_t edges = 0;   // edges in the batch (loops/duplicates included)
  std::uint64_t merges = 0;  // components removed by this batch
  std::uint64_t rounds = 0;  // hook+shortcut rounds to fixpoint
  double seconds = 0.0;      // merge + snapshot production (+ verify epoch)
  bool verify_ran = false;   // a rebuild/verify epoch ran after this batch
  bool verified = true;      // false iff it ran and disagreed
  /// False iff the batch was rejected (an endpoint >= n: kInvalidArgument)
  /// or the write-ahead append failed before the record landed: the batch
  /// was NOT applied (memory and disk both exclude it — retry or drop it,
  /// the engine state is unchanged). `durability` then carries the reason.
  /// A record that reached the file but missed its fsync barrier still
  /// applies (replay would see it; retrying would duplicate it) with the
  /// error reported in `durability`.
  bool applied = true;
  /// First error of this call: kInvalidArgument for a rejected batch, else
  /// the first durability error (WAL append/sync or checkpoint write; OK
  /// when durability is off). A checkpoint failure leaves the batch
  /// applied — recovery just replays a longer WAL suffix.
  util::Status durability;
};

/// What a point query can report about its answer.
struct QueryInfo {
  std::uint64_t epoch = 0;  // epoch of the snapshot that answered
  /// kInvalidArgument when a queried vertex is >= n (the answer is then
  /// false, kInvalidVertex or 0); OK otherwise.
  util::Status status;
};

class ConnectivityEngine {
 public:
  /// Engine over the fixed vertex universe [0, n). Publishes the initial
  /// all-singletons snapshot immediately, so queries are valid before the
  /// first batch. Durable engines are built via recover() (LOGCC_CHECK:
  /// options.durability.dir must be empty here).
  explicit ConnectivityEngine(std::uint64_t n, EngineOptions options = {});

  /// Builds (or rebuilds after a crash) a durable engine from `dir`:
  /// creates the directory if needed, loads the checkpoint when one is
  /// present (a corrupt checkpoint is skipped — the WAL holds the full
  /// history), replays the WAL suffix past it, truncates any torn tail,
  /// and opens the WAL for appending. The recovered engine's published
  /// index is bit-identical to an uninterrupted engine fed the same
  /// durable batch prefix. `n` must match the on-disk stream when one
  /// exists.
  struct RecoveryInfo {
    bool used_checkpoint = false;
    util::Status checkpoint_status;   // why the checkpoint was not used
    std::uint64_t checkpoint_batches = 0;
    std::uint64_t replayed_records = 0;  // WAL records merged on top
    std::uint64_t torn_bytes = 0;        // truncated torn-tail bytes
  };
  static util::Status recover(const std::string& dir, std::uint64_t n,
                              EngineOptions options,
                              std::unique_ptr<ConnectivityEngine>* out,
                              RecoveryInfo* info = nullptr);

  // --- writer side (one thread at a time) --------------------------------
  /// Inserts a batch of edges and publishes the next snapshot epoch.
  /// Self-loops and duplicates are tolerated. A batch with any endpoint
  /// >= n is rejected whole before the WAL is touched (result.applied ==
  /// false, result.durability is kInvalidArgument; epoch, batch count and
  /// WAL offset are unchanged). Runs a rebuild/verify epoch when the
  /// cadence says so. Durable engines append the batch to the WAL first;
  /// if that fails the batch is not applied (result.applied == false) and
  /// the engine state is unchanged.
  BatchResult apply_batch(std::span<const graph::Edge> batch);
  /// Full recompute through connected_components() on the accumulated edge
  /// set; cross-checks the incremental index (exact labels + sizes + count)
  /// and publishes the recomputed snapshot. Returns true when the
  /// incremental state matched.
  bool verify_and_rebuild();
  /// Forces the durable state current: fsyncs the WAL and writes a
  /// checkpoint of the present forest. The clean-shutdown path (cc_serve's
  /// SIGTERM handler calls this). No-op returning OK when durability is
  /// off.
  util::Status flush_durable();

  // --- reader side (any number of threads, never blocked by the writer) --
  /// The current epoch's immutable snapshot (never null).
  std::shared_ptr<const core::ComponentIndex> snapshot() const {
    const auto& p = published_.read();
    return {p, &p->index};  // shares the published pair's ownership
  }
  /// Point queries on the current snapshot. A vertex >= n is answered
  /// false / graph::kInvalidVertex / 0, with info->status kInvalidArgument.
  bool connected(graph::VertexId u, graph::VertexId v,
                 QueryInfo* info = nullptr) const {
    const Published& s = *published_.read();
    const bool in_range = std::max(u, v) < s.index.num_vertices();
    const bool answer = in_range && s.index.connected(u, v);
    if (info != nullptr) report(s.epoch, in_range, info);
    return answer;
  }
  graph::VertexId component_of(graph::VertexId v,
                               QueryInfo* info = nullptr) const;
  std::uint64_t component_count() const {
    return published_.read()->index.num_components();
  }
  std::uint64_t component_size(graph::VertexId v,
                               QueryInfo* info = nullptr) const;

  // --- introspection -----------------------------------------------------
  std::uint64_t num_vertices() const { return log_.num_vertices(); }
  std::uint64_t num_edges() const { return log_.num_edges(); }
  std::uint64_t num_batches() const { return log_.num_batches(); }
  /// Published snapshot generation (increments on every batch and rebuild).
  std::uint64_t epoch() const { return published_.epoch(); }
  const graph::EdgeLog& edges() const { return log_; }
  bool durable() const { return durable_; }
  /// Estimate of resident bytes (edge log + forest arrays + published
  /// snapshot).
  std::uint64_t resident_bytes() const;
  /// WAL byte offset of the durable stream position (0 when not durable).
  std::uint64_t wal_offset() const { return durable_ ? wal_.offset() : 0; }

 private:
  /// Hook+shortcut the batch into the flat forest; returns rounds.
  std::uint64_t merge_batch(std::span<const graph::Edge> batch);
  /// Builds and swaps in the next epoch's snapshot from the current flat
  /// forest.
  void publish();
  /// Writes a checkpoint of the current forest at the current WAL offset.
  util::Status write_checkpoint_now();
  /// Fills a query's QueryInfo. Out of line, so the query path itself
  /// stays one cached read, one range compare and one lookup.
  static void report(std::uint64_t epoch, bool in_range, QueryInfo* info);

  EngineOptions options_;
  graph::EdgeLog log_;
  // The incremental state: always flat between batches, parent_[v] is the
  // canonical (min-id) label of v's component. scratch_ is the shortcut
  // double buffer.
  std::vector<graph::VertexId> parent_;
  std::vector<graph::VertexId> scratch_;
  std::uint64_t last_count_ = 0;  // published count (writer-side bookkeeping)
  /// One published epoch: the snapshot and its number, swapped in as one
  /// immutable object so a query reports the epoch that answered it.
  struct Published {
    std::uint64_t epoch = 0;
    core::ComponentIndex index;
  };
  util::EpochPtr<Published> published_;
  WalWriter wal_;  // open iff durable_
  bool durable_ = false;
};

}  // namespace logcc::serve
