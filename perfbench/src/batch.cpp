#include "batch.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "baselines/union_find.hpp"
#include "core/budget.hpp"
#include "core/building_blocks.hpp"
#include "core/cc_theorem1.hpp"
#include "core/compact.hpp"
#include "core/connectivity.hpp"
#include "core/expand_maxlink.hpp"
#include "core/round_arena.hpp"
#include "util/arena.hpp"
#include "util/bitutil.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

namespace perfbench {

using logcc::Algorithm;
using logcc::core::ComponentIndex;
using logcc::graph::VertexId;
namespace core = logcc::core;
namespace util = logcc::util;

std::uint64_t rep_seed(std::uint64_t seed, std::uint64_t k) {
  return util::mix64(seed, 0xBE7C, k) | 1;
}

namespace {

logcc::ComponentsResult faster_cc(const logcc::graph::ArcsInput& in,
                                  std::uint64_t seed) {
  logcc::Options opt;
  opt.seed = seed;
  return logcc::connected_components(in, Algorithm::kFasterCC, opt);
}

/// faster-cc driven through the public stages of core/faster_cc.cpp, in its
/// order and with its seeds, one span per stage under a "faster_cc" span.
/// Must produce the same index and RunStats as connected_components; the
/// caller checks that and reports the split stale when it does not.
ComponentIndex staged_faster_cc(const logcc::graph::ArcsInput& in,
                                std::uint64_t seed, SpanLog& log,
                                core::RunStats* stats) {
  ScopedSpan total(&log, "faster_cc");
  core::RoundArena round_arena;
  core::RoundArena::Scope arena_scope(round_arena);
  const std::uint64_t n = in.num_vertices();
  std::vector<VertexId> labels;

  std::optional<ScopedSpan> stage;
  stage.emplace(&log, "compact");
  core::CompactParams cp;
  cp.seed = seed;
  core::CompactResult comp = core::compact(in, cp);
  stats->absorb(comp.stats);
  log.count("compact.prepare_phases",
            static_cast<double>(comp.stats.prepare_phases), stage->id());
  log.count("compact.n_compact", static_cast<double>(comp.n_compact),
            stage->id());

  if (comp.n_compact == 0) {
    stage.emplace(&log, "relabel");
    comp.outer.flatten();
    labels = comp.outer.root_labels();
  } else {
    stage.emplace(&log, "expand_maxlink");
    const std::uint64_t m0 = std::max<std::uint64_t>(comp.arcs.size(), 1);
    const core::ParamPolicy policy =
        core::ParamPolicy::practical(comp.n_compact, m0);
    core::ExpandMaxlink engine(comp.n_compact, comp.arcs, comp.exists, policy,
                               util::mix64(seed, 0xFA57), *stats);
    const std::uint64_t max_rounds =
        4 * (util::ceil_log2(std::max<std::uint64_t>(n, 4)) +
             static_cast<std::uint64_t>(util::loglog_density(n, m0))) +
        32;
    bool broke = false;
    for (std::uint64_t r = 0; r < max_rounds; ++r) {
      util::scratch_arena_round_reset();
      if (engine.round()) {
        broke = true;
        break;
      }
    }
    const int em = stage->id();
    log.count("expand_maxlink.rounds", static_cast<double>(engine.rounds_run()),
              em);
    log.count("expand_maxlink.hash_collisions",
              static_cast<double>(stats->hash_collisions), em);
    log.count("expand_maxlink.level_raises",
              static_cast<double>(stats->level_raises), em);
    log.count("expand_maxlink.max_level", static_cast<double>(stats->max_level),
              em);

    stage.emplace(&log, "cc_theorem1");
    const std::uint64_t phases_before = stats->phases;
    engine.forest().flatten();
    std::vector<core::Arc> rest = engine.remaining_arcs();
    core::alter(rest, engine.forest());
    core::drop_loops(rest);
    core::dedup_arcs(rest);
    core::Theorem1Params t1;
    t1.seed = util::mix64(seed, 0x7E0);
    if (!broke) stats->finisher_used = true;
    core::theorem1_phases(engine.forest(), rest, m0, t1, *stats);
    engine.forest().flatten();
    log.count("cc_theorem1.phases",
              static_cast<double>(stats->phases - phases_before), stage->id());

    stage.emplace(&log, "relabel");
    comp.outer.flatten();
    labels.resize(n);
    util::parallel_for(0, n, [&](std::size_t v) {
      const VertexId r = comp.outer.find_root(static_cast<VertexId>(v));
      const std::uint32_t cid = comp.renamed_of[r];
      if (cid == core::CompactResult::kInvalid) {
        labels[v] = r;
      } else {
        const VertexId croot =
            engine.forest().find_root(static_cast<VertexId>(cid));
        labels[v] = comp.orig_of[croot];
      }
    });
  }
  log.count("faster_cc.peak_space_words",
            static_cast<double>(stats->peak_space_words), total.id());
  stage.emplace(&log, "component_index.build");
  ComponentIndex index = ComponentIndex::from_labels(std::move(labels));
  stage.reset();
  return index;
}

bool same_work(const core::RunStats& a, const core::RunStats& b) {
  return a.rounds == b.rounds && a.phases == b.phases &&
         a.prepare_phases == b.prepare_phases &&
         a.hash_collisions == b.hash_collisions &&
         a.level_raises == b.level_raises && a.max_level == b.max_level &&
         a.peak_space_words == b.peak_space_words;
}

}  // namespace

bool setup_batch(const std::string& csr_path, std::uint64_t warm_seed,
                 Tally& tally, BatchInput* out, double* load_s) {
  std::string error;
  if (!logcc::graph::load_dataset_zero_copy(csr_path, out->handle, &error)) {
    std::fprintf(stderr, "perfbench: cannot load %s: %s\n", csr_path.c_str(),
                 error.c_str());
    return false;
  }
  *load_s = out->handle.info().load_seconds;
  const auto& in = out->handle.input();
  out->reference = ComponentIndex::from_labels(
      logcc::baselines::union_find_cc(in).labels);
  tally.check(faster_cc(in, warm_seed).index == out->reference,
              "warm-up faster-cc index == union-find reference");
  return true;
}

std::vector<Rep> run_labels(const BatchInput& in, std::uint64_t seed,
                            double budget_s, int min_pairs, Tally& tally) {
  std::vector<Rep> reps;
  const double start = now_s();
  for (std::uint64_t k = 0;
       static_cast<int>(k) < min_pairs || now_s() - start < budget_s; ++k) {
    for (int i = 0; i < 2; ++i) {
      // Alternate which lane count goes first, so drift within a run
      // lands on both columns alike.
      const int lanes = (k + i) % 2 == 0 ? kLanes : 1;
      util::set_parallelism(lanes);
      Rep rep;
      rep.seed = rep_seed(seed, k);
      rep.lanes = lanes;
      const Instant t0 = instant();
      const auto r = faster_cc(in.handle.input(), rep.seed);
      rep.time = since(t0);
      rep.stats = r.stats;
      tally.check(r.index == in.reference,
                  "faster-cc index == union-find reference");
      reps.push_back(rep);
    }
  }
  util::set_parallelism(kLanes);
  return reps;
}

void run_traced_labels(const BatchInput& in, std::uint64_t seed, int reps,
                       SpanLog& log, Tally& tally, Metrics& metrics) {
  const auto& input = in.handle.input();
  std::vector<double> untraced, untraced_wall, traced, coverage;
  bool stale = false;
  util::set_parallelism(kLanes);
  for (int k = 0; k < reps; ++k) {
    const std::uint64_t s = rep_seed(seed, static_cast<std::uint64_t>(k));
    logcc::ComponentsResult plain;
    core::RunStats stats;
    ComponentIndex staged;
    int top = -1;
    // Alternate which of the pair runs first, so warm-cache effects land
    // on both sides of trace.overhead_pct alike.
    for (int i = 0; i < 2; ++i) {
      if ((k + i) % 2 == 0) {
        const Instant t0 = instant();
        plain = faster_cc(input, s);
        const Elapsed e = since(t0);
        untraced.push_back(e.cpu);
        untraced_wall.push_back(e.wall);
      } else {
        top = static_cast<int>(log.spans().size());
        staged = staged_faster_cc(input, s, log, &stats);
      }
    }
    tally.check(plain.index == in.reference,
                "faster-cc index == union-find reference");
    traced.push_back(log.duration(top));
    coverage.push_back(1.0 - log.self_time(top) / log.duration(top));
    // The stage runner mirrors core/faster_cc.cpp by hand; when the two
    // disagree the mirror is out of date and its split would be wrong.
    if (!(staged == plain.index) || !same_work(stats, plain.stats)) {
      stale = true;
      std::printf("trace: stage runner disagrees with connected_components "
                  "at seed %llu: per-layer split is STALE\n",
                  static_cast<unsigned long long>(s));
    }
  }

  std::vector<double> uf;
  util::set_parallelism(1);
  for (int k = 0; k < 3; ++k) {
    const Instant t0 = instant();
    const auto r = logcc::baselines::union_find_cc(input);
    uf.push_back(since(t0).cpu);
    tally.check(ComponentIndex::from_labels(r.labels) == in.reference,
                "union-find rerun == reference");
  }
  util::set_parallelism(kLanes);

  const auto n = static_cast<std::uint64_t>(reps);
  // A stale split prints -1 rather than numbers that describe a different
  // program than the one connected_components runs.
  auto split = [&](const char* metric, const std::vector<double>& xs,
                   const char* unit) {
    metrics.add(metric, stale ? -1.0 : util::percentile(xs, 50), unit, n);
  };
  auto stage = [&](const char* metric, const char* span) {
    split(metric, log.durations(span), "s");
  };
  auto count = [&](const char* name) {
    split(name, log.values(name), "count");
  };
  stage("compact.time_s", "compact");
  count("compact.prepare_phases");
  count("compact.n_compact");
  stage("expand_maxlink.time_s", "expand_maxlink");
  count("expand_maxlink.rounds");
  count("expand_maxlink.hash_collisions");
  count("expand_maxlink.level_raises");
  count("expand_maxlink.max_level");
  stage("cc_theorem1.time_s", "cc_theorem1");
  count("cc_theorem1.phases");
  stage("faster_cc.relabel_s", "relabel");
  split("faster_cc.peak_space_words",
        log.values("faster_cc.peak_space_words"), "words");
  stage("component_index.build_s", "component_index.build");
  metrics.add("union_find.time_s", util::percentile(uf, 50), "s", uf.size());
  metrics.add("trace.coverage_pct", 100.0 * util::percentile(coverage, 50),
              "%", n);
  const double plain_s = util::percentile(untraced, 50);
  metrics.add("trace.overhead_pct",
              100.0 * (util::percentile(traced, 50) - plain_s) / plain_s, "%",
              n);
  metrics.add("trace.split_stale", stale ? 1.0 : 0.0, "count", 1);
  // Wall-clock companion of labels_s: unlike the caller's CPU clock it
  // includes the time the caller waits parked for the other lane.
  metrics.add("labels_wall_s", util::percentile(untraced_wall, 50), "s", n);
}

}  // namespace perfbench
