#include "serve/connectivity_engine.hpp"

#include <cerrno>
#include <cstring>
#include <string>

#include "util/check.hpp"
#include "util/failpoint.hpp"
#include "util/timer.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define LOGCC_ENGINE_POSIX 1
#include <sys/stat.h>
#include <sys/types.h>
#endif

namespace logcc::serve {

using graph::Edge;
using graph::VertexId;
using util::Status;

namespace {

Status make_dir(const std::string& dir) {
#ifdef LOGCC_ENGINE_POSIX
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return Status::ok();
  return Status::io_error("cannot create durability dir '" + dir + "' (" +
                          std::strerror(errno) + ")");
#else
  return Status::failed_precondition(
      "durable engines need POSIX file I/O on this platform");
#endif
}

std::string wal_path(const std::string& dir) { return dir + "/edges.wal"; }
std::string ckpt_path(const std::string& dir) { return dir + "/index.ckpt"; }

}  // namespace

ConnectivityEngine::ConnectivityEngine(std::uint64_t n, EngineOptions options)
    : options_(options), log_(n), forest_(n) {
  LOGCC_CHECK_MSG(options_.durability.dir.empty(),
                  "durable engines are built via ConnectivityEngine::recover");
  publish();  // epoch 1: n singleton components
}

Status ConnectivityEngine::recover(const std::string& dir, std::uint64_t n,
                                   EngineOptions options,
                                   std::unique_ptr<ConnectivityEngine>* out,
                                   RecoveryInfo* info) {
  LOGCC_CHECK_MSG(!dir.empty(), "recover: durability dir must be non-empty");
  RecoveryInfo local;
  if (info == nullptr) info = &local;
  *info = RecoveryInfo{};

  Status s = make_dir(dir);
  if (!s.is_ok()) return s;

  // Build the in-memory engine first (the constructor path, minus
  // durability — that is attached below once the files are open).
  EngineOptions shell = options;
  shell.durability = DurabilityOptions{};
  auto engine = std::make_unique<ConnectivityEngine>(n, shell);

  // Checkpoint, when one is valid: seeds the forest so only the WAL
  // suffix past its offset needs merging. A corrupt checkpoint is NOT
  // fatal — the WAL holds the complete history, so recovery falls back to
  // a full replay and reports why in `info`.
  CheckpointState ckpt;
  std::uint64_t replay_from = 0;
  Status cs = read_checkpoint(ckpt_path(dir), &ckpt);
  info->checkpoint_status = cs;
  if (cs.is_ok()) {
    if (ckpt.n != n)
      return Status::corruption(
          "checkpoint in '" + dir + "' covers n=" + std::to_string(ckpt.n) +
          ", engine wants n=" + std::to_string(n));
    info->used_checkpoint = true;
    info->checkpoint_batches = ckpt.batches;
    engine->forest_.raw() = std::move(ckpt.labels);
    replay_from = ckpt.wal_offset;
  } else if (cs.code() != util::StatusCode::kNotFound &&
             cs.code() != util::StatusCode::kCorruption) {
    return cs;  // I/O trouble reading it: do not guess, report
  }

  // Replay: every record re-enters the edge log (the stream's logical
  // position), but only records past the checkpoint offset are merged —
  // the checkpointed labels already reflect the prefix.
  std::uint64_t replayed = 0;
  WalScan scan;
  Status rs = wal_replay(
      wal_path(dir),
      [&](std::uint64_t record_offset, std::span<const Edge> batch) {
        engine->log_.append(batch);
        if (record_offset >= replay_from) {
          engine->merge_batch(batch);
          ++replayed;
        }
      },
      &scan);
  if (rs.code() == util::StatusCode::kNotFound) {
    // No WAL yet. Fine for a fresh dir; a checkpoint claiming batches
    // without its WAL means durable history was lost.
    if (info->used_checkpoint && ckpt.batches > 0)
      return Status::corruption("checkpoint in '" + dir +
                                "' has no WAL backing its " +
                                std::to_string(ckpt.batches) + " batches");
  } else if (!rs.is_ok()) {
    return rs;
  } else {
    if (scan.n != n)
      return Status::corruption(
          "WAL in '" + dir + "' covers n=" + std::to_string(scan.n) +
          ", engine wants n=" + std::to_string(n));
    if (info->used_checkpoint && scan.records < ckpt.batches)
      return Status::corruption(
          "WAL in '" + dir + "' holds " + std::to_string(scan.records) +
          " records but the checkpoint claims " +
          std::to_string(ckpt.batches) + " durable batches");
  }
  info->replayed_records = replayed;
  info->torn_bytes = scan.torn_bytes;

  // Open for appending — this also truncates any torn tail the scan found,
  // so the file ends exactly at the state the engine now holds.
  s = WalWriter::open_for_append(wal_path(dir), n, options.durability.wal,
                                 &engine->wal_, nullptr);
  if (!s.is_ok()) return s;
  engine->durable_ = true;
  engine->options_.durability = options.durability;

  engine->publish();  // the recovered epoch
  *out = std::move(engine);
  return Status::ok();
}

std::uint64_t ConnectivityEngine::merge_batch(std::span<const Edge> batch) {
  // Only roots link, each under the smaller root, so the component minimum
  // stays a root and one flatten restores the canonical labels. A batch of
  // internal edges (the heavy-traffic steady state) costs O(batch).
  std::uint64_t links = 0;
  for (const Edge& e : batch) links += forest_.unite(e.u, e.v);
  if (links != 0) forest_.flatten();
  return links;
}

void ConnectivityEngine::publish() {
  std::vector<VertexId> labels = forest_.raw();  // flat == canonical min-id
  published_.store(std::make_shared<const Published>(Published{
      published_.epoch() + 1,  // one writer: no store can race this one
      core::ComponentIndex::from_canonical_labels(std::move(labels))}));
}

std::uint64_t ConnectivityEngine::resident_bytes() const {
  const std::uint64_t n = num_vertices();
  std::uint64_t bytes = log_.memory_bytes();
  bytes += 2 * n * sizeof(VertexId);  // the forest and its SHORTCUT buffer
  // Published snapshot (labels + sizes + root table) — estimated rather
  // than walked, since readers may be holding older epochs alive too.
  bytes += 12 * n;
  return bytes;
}

BatchResult ConnectivityEngine::apply_batch(std::span<const Edge> batch) {
  util::Timer timer;
  BatchResult out;
  out.batch = log_.num_batches() + 1;
  out.edges = batch.size();
  // Validate at the boundary BEFORE anything touches disk: the WAL must
  // never hold a record replay would reject. A bad batch is the caller's
  // error to handle, so it is rejected whole rather than aborting.
  const std::uint64_t n = num_vertices();
  for (const Edge& e : batch) {
    if (e.u < n && e.v < n) continue;
    out.applied = false;
    out.durability = Status::invalid_argument(
        "apply_batch: endpoint out of range (edge " + std::to_string(e.u) +
        "-" + std::to_string(e.v) + ", n=" + std::to_string(n) + ")");
    out.seconds = timer.seconds();
    return out;
  }

  if (durable_) {
    // Write-ahead: the record is on disk (per the fsync policy) before the
    // merge starts. If the append fails before anything lands, the batch
    // simply never happened — memory and disk agree on excluding it. If the
    // record landed but its fsync barrier failed (offset advanced), the
    // batch MUST still apply: replay will see the record, and a retry would
    // duplicate it. The error is reported either way.
    const std::uint64_t wal_before = wal_.offset();
    out.durability = wal_.append(batch);
    if (!out.durability.is_ok() && wal_.offset() == wal_before) {
      out.applied = false;
      out.seconds = timer.seconds();
      return out;
    }
    // Crash/delay site for the fault suite: the record is durable but the
    // merge has not run — recovery must replay it. The `error` action is a
    // deliberate no-op here (failing now would desync the checkpoint
    // offset from a record that IS on disk).
    (void)LOGCC_FAILPOINT("engine_after_wal_append");
  }

  log_.append(batch);
  out.merges = merge_batch(batch);
  out.rounds = out.merges != 0 ? 1 : 0;
  // Crash site: merged in memory, not yet published/checkpointed.
  (void)LOGCC_FAILPOINT("engine_before_publish");
  publish();

  if (options_.verify_every != 0 && out.batch % options_.verify_every == 0) {
    out.verify_ran = true;
    out.verified = verify_and_rebuild();
  }

  if (durable_ && options_.durability.checkpoint_every != 0 &&
      out.batch % options_.durability.checkpoint_every == 0) {
    // Sync before checkpointing: the checkpoint's wal_offset must never
    // point past data the disk could still lose.
    Status cs = wal_.sync();
    if (cs.is_ok()) cs = write_checkpoint_now();
    // A checkpoint failure is reported but NOT fatal: the batch is applied
    // and durable, recovery just replays a longer suffix.
    if (out.durability.is_ok()) out.durability = cs;
    (void)LOGCC_FAILPOINT("engine_after_checkpoint");
  }
  out.seconds = timer.seconds();
  return out;
}

util::Status ConnectivityEngine::write_checkpoint_now() {
  CheckpointState state;
  state.n = num_vertices();
  state.epoch = published_.epoch();
  state.batches = log_.num_batches();
  state.wal_offset = wal_.offset();
  state.num_components = published_.load()->index.num_components();
  state.labels = forest_.raw();
  return write_checkpoint(ckpt_path(options_.durability.dir), state);
}

util::Status ConnectivityEngine::flush_durable() {
  if (!durable_) return Status::ok();
  Status s = wal_.sync();
  if (!s.is_ok()) return s;
  return write_checkpoint_now();
}

bool ConnectivityEngine::verify_and_rebuild() {
  // Full recompute on the accumulated edge set through the batch path. The
  // EdgeLog view is only live inside this call (append invalidates it).
  Options opt;
  opt.seed = options_.seed;
  auto r = connected_components(log_.input(), options_.rebuild_algorithm, opt);
  // Both sides are canonical min-id snapshots: agreement is exact equality
  // of labels, sizes, and count — not merely the same partition.
  const bool ok = r.index == published_.load()->index;
  // Roll the epoch forward with the recomputed labels either way: on
  // disagreement readers now see the *recomputed* truth (self-healing),
  // and the caller learns the incremental state was bad. Re-seed the
  // incremental forest from the rebuild so later batches continue from
  // the verified labels.
  if (!ok) forest_.raw() = r.index.labels();
  publish();
  return ok;
}

[[gnu::noinline]] void ConnectivityEngine::report(std::uint64_t epoch,
                                                  bool in_range,
                                                  QueryInfo* info) {
  info->epoch = epoch;
  info->status = in_range
                     ? Status::ok()
                     : Status::invalid_argument("query: vertex out of range");
}

VertexId ConnectivityEngine::component_of(VertexId v, QueryInfo* info) const {
  const Published& s = *published_.read();
  const bool in_range = v < s.index.num_vertices();
  const VertexId answer =
      in_range ? s.index.component_of(v) : graph::kInvalidVertex;
  if (info != nullptr) report(s.epoch, in_range, info);
  return answer;
}

std::uint64_t ConnectivityEngine::component_size(VertexId v,
                                                 QueryInfo* info) const {
  const Published& s = *published_.read();
  const bool in_range = v < s.index.num_vertices();
  const std::uint64_t answer = in_range ? s.index.component_size(v) : 0;
  if (info != nullptr) report(s.epoch, in_range, info);
  return answer;
}

}  // namespace logcc::serve
