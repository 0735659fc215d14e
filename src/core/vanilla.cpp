#include "core/vanilla.hpp"

#include <algorithm>

#include "core/round_arena.hpp"
#include "util/arena.hpp"
#include "util/bitutil.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"
#include "util/scan.hpp"

namespace logcc::core {

template <typename V>
std::uint64_t vanilla_loop(BasicParentForest<V>& forest,
                           std::vector<BasicArc<V>>& arcs,
                           const VanillaSchedule<V>& schedule, RunStats& stats,
                           std::vector<std::uint8_t>* in_forest) {
  using OrigId = typename BasicArc<V>::OrigId;
  const std::uint64_t n = forest.size();
  constexpr OrigId kNoArc = static_cast<OrigId>(-1);
  std::vector<std::uint8_t> leader(n, 0);
  // v.e of §C: the arc index that realises v's link this phase.
  std::vector<OrigId> chosen(n, kNoArc);

  std::uint64_t phases = 0;
  while (has_nonloop(arcs)) {
    util::scratch_arena_round_reset();
    if (schedule.stop(phases, arcs)) break;
    const std::uint64_t coin = schedule.coin_seed(phases);
    ++phases;
    stats.pram_steps += 5;  // vote, mark, link, shortcut, alter

    // RANDOM-VOTE.
    util::parallel_for(0, n, [&](std::size_t v) {
      leader[v] = util::mix64(coin, v) & 1;
    });

    // MARK-EDGE. The CRCW "arbitrary write wins" becomes a fetch-min on the
    // arc index: the lowest-indexed eligible arc wins deterministically.
    util::parallel_for(0, arcs.size(), [&](std::size_t i) {
      const BasicArc<V>& a = arcs[i];
      if (a.u == a.v) return;
      const OrigId idx = static_cast<OrigId>(i);
      // Both directions of the undirected arc.
      if (forest.is_root(a.u) && !leader[a.u] && leader[a.v])
        util::atomic_min(chosen[a.u], idx);
      if (forest.is_root(a.v) && !leader[a.v] && leader[a.u])
        util::atomic_min(chosen[a.v], idx);
    });
    // LINK. Each v writes only its own parent; an arc realises at most one
    // link (its endpoints need opposite coins), so the in_forest marks are
    // distinct too.
    util::parallel_for(0, n, [&](std::size_t v) {
      OrigId i = chosen[v];
      if (i == kNoArc) return;
      chosen[v] = kNoArc;
      const BasicArc<V>& a = arcs[i];
      V w = (a.u == static_cast<V>(v)) ? a.v : a.u;
      forest.set_parent(static_cast<V>(v), w);
      if (in_forest) (*in_forest)[a.orig] = 1;
    });
    // SHORTCUT (one step suffices: link trees have height <= 2).
    forest.shortcut();
    // ALTER + loop cleanup.
    alter(arcs, forest);
    drop_loops(arcs);
    dedup_arcs(arcs);

    LOGCC_CHECK_MSG(phases <= 100000, "Vanilla failed to converge");
  }
  return phases;
}

template std::uint64_t vanilla_loop(ParentForest&, std::vector<Arc>&,
                                    const VanillaSchedule<VertexId>&, RunStats&,
                                    std::vector<std::uint8_t>*);
template std::uint64_t vanilla_loop(ParentForest64&, std::vector<Arc64>&,
                                    const VanillaSchedule<VertexId64>&,
                                    RunStats&, std::vector<std::uint8_t>*);

namespace {

// vanilla_phases' schedule: coins mix64(seed, p + 1, v), at most max_phases
// phases when it is set.
template <typename V>
VanillaSchedule<V> schedule_of(const VanillaOptions& opt) {
  VanillaSchedule<V> schedule;
  schedule.coin_seed = [opt](std::uint64_t p) {
    return util::mix64(opt.seed, p + 1);
  };
  schedule.stop = [opt](std::uint64_t p, const std::vector<BasicArc<V>>&) {
    return opt.max_phases != 0 && p >= opt.max_phases;
  };
  return schedule;
}

template <typename V>
BasicCcResult<V> vanilla_cc_impl(const graph::BasicArcsInput<V>& in,
                                 std::uint64_t seed) {
  BasicCcResult<V> out;
  RoundArena round_arena;
  RoundArena::Scope arena_scope(round_arena);
  BasicParentForest<V> forest(in.num_vertices());
  std::vector<BasicArc<V>> arcs = arcs_from_input(in);
  drop_loops(arcs);
  VanillaOptions opt;
  opt.seed = seed;
  vanilla_phases(forest, arcs, opt, out.stats);
  forest.flatten();
  out.labels = forest.root_labels();
  return out;
}

}  // namespace

template <typename V>
std::uint64_t vanilla_phases(BasicParentForest<V>& forest,
                             std::vector<BasicArc<V>>& arcs,
                             const VanillaOptions& opt, RunStats& stats) {
  const std::uint64_t phases =
      vanilla_loop(forest, arcs, schedule_of<V>(opt), stats);
  stats.phases += phases;
  return phases;
}

template std::uint64_t vanilla_phases(ParentForest&, std::vector<Arc>&,
                                      const VanillaOptions&, RunStats&);
template std::uint64_t vanilla_phases(ParentForest64&, std::vector<Arc64>&,
                                      const VanillaOptions&, RunStats&);

std::uint64_t prepare(ParentForest& forest, std::vector<Arc>& arcs,
                      std::uint64_t m0, const PrepareRule& rule,
                      RunStats& stats, std::vector<std::uint8_t>* in_forest) {
  const std::uint64_t n = forest.size();
  const std::uint64_t budget =
      rule.max_phases == PrepareRule::kAutoPhases
          ? static_cast<std::uint64_t>(2.0 * util::loglog_density(n, m0)) + 4
          : rule.max_phases;
  std::vector<std::uint8_t> ongoing;  // mark_ongoing's flags, reused
  VanillaSchedule<VertexId> schedule;
  schedule.coin_seed = [&](std::uint64_t p) { return rule.coin_seed(p); };
  schedule.stop = [&](std::uint64_t p, const std::vector<Arc>& live) {
    if (p >= budget) return true;
    const double k = static_cast<double>(mark_ongoing(n, live, ongoing));
    return static_cast<double>(m0) / std::max(1.0, k) >= rule.target_density;
  };
  const std::uint64_t phases =
      vanilla_loop(forest, arcs, schedule, stats, in_forest);
  stats.prepare_phases += phases;
  stats.prepare_used = stats.prepare_used || phases > 0;
  return phases;
}

CcResult vanilla_cc(const graph::ArcsInput& in, std::uint64_t seed) {
  return vanilla_cc_impl(in, seed);
}

CcResult64 vanilla_cc(const graph::ArcsInput64& in, std::uint64_t seed) {
  return vanilla_cc_impl(in, seed);
}

VanillaSfResult vanilla_sf(const graph::ArcsInput& in, std::uint64_t seed) {
  VanillaSfResult out;
  RoundArena round_arena;
  RoundArena::Scope arena_scope(round_arena);
  ParentForest forest(in.num_vertices());
  std::vector<Arc> arcs = arcs_from_input(in);
  drop_loops(arcs);
  std::vector<std::uint8_t> in_forest(in.num_edges(), 0);
  VanillaOptions opt;
  opt.seed = seed;
  out.stats.phases += vanilla_loop(forest, arcs, schedule_of<VertexId>(opt),
                                   out.stats, &in_forest);
  for (std::uint64_t i = 0; i < in_forest.size(); ++i)
    if (in_forest[i]) out.forest_edges.push_back(i);
  return out;
}

}  // namespace logcc::core
