#include "core/expand_maxlink.hpp"

#include <algorithm>
#include <atomic>

#include "util/check.hpp"
#include "util/hashing.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"
#include "util/scan.hpp"

namespace logcc::core {

namespace {

/// Packed (level, id) priority for the MAXLINK fetch-max: the CRCW
/// "highest-level parent wins, ties by id" resolution in one word.
inline std::uint64_t pack_level_id(std::uint32_t level, VertexId id) {
  return (static_cast<std::uint64_t>(level) << 32) | id;
}

}  // namespace

ExpandMaxlink::ExpandMaxlink(std::uint64_t n, std::vector<Arc> arcs,
                             std::vector<std::uint8_t> exists,
                             const ParamPolicy& policy, std::uint64_t seed,
                             RunStats& stats)
    : n_(n),
      arcs_(std::move(arcs)),
      exists_(std::move(exists)),
      forest_(n),
      level_(n, 0),
      budget_(n, 0),
      policy_(policy),
      seed_(seed),
      stats_(stats) {
  LOGCC_CHECK(exists_.size() == n_);
  const std::uint64_t b1 = policy_.budget_for_level(1);
  util::parallel_for(0, n_, [&](std::size_t v) {
    if (exists_[v]) {
      level_[v] = 1;
      budget_[v] = b1;
    }
  });
  stats_.total_block_words +=
      b1 * util::parallel_reduce(
               std::size_t{0}, n_, std::uint64_t{0},
               [&](std::size_t v) {
                 return static_cast<std::uint64_t>(exists_[v] ? 1 : 0);
               },
               [](std::uint64_t a, std::uint64_t b) { return a + b; });
  drop_loops(arcs_);
  dedup_arcs(arcs_);
}

void ExpandMaxlink::maxlink(int iterations, bool& parent_changed) {
  best_.resize(n_);
  for (int it = 0; it < iterations; ++it) {
    ++stats_.pram_steps;
    // Candidate = the neighbourhood parent with maximal (level, id); v's own
    // parent is always a candidate because v ∈ N(v). The packed fetch-max
    // realises the CRCW write resolution deterministically.
    util::parallel_for(0, n_, [&](std::size_t v) {
      const VertexId p = forest_.parent(static_cast<VertexId>(v));
      best_[v] = pack_level_id(level_[p], p);
    });
    auto relax = [&](const std::vector<Arc>& arcs) {
      util::parallel_for(0, arcs.size(), [&](std::size_t i) {
        const Arc& a = arcs[i];
        if (a.u == a.v) return;
        const VertexId pu = forest_.parent(a.u);
        const VertexId pv = forest_.parent(a.v);
        util::atomic_max(best_[a.u], pack_level_id(level_[pv], pv));
        util::atomic_max(best_[a.v], pack_level_id(level_[pu], pu));
      });
    };
    relax(arcs_);
    relax(added_);
    std::atomic<bool> changed{false};
    util::parallel_for(0, n_, [&](std::size_t v) {
      const VertexId cand = static_cast<VertexId>(best_[v]);
      if (level_[cand] > level_[v] &&
          cand != forest_.parent(static_cast<VertexId>(v))) {
        forest_.set_parent(static_cast<VertexId>(v), cand);
        changed.store(true, std::memory_order_relaxed);
      }
    });
    if (changed.load()) parent_changed = true;
  }
}

void ExpandMaxlink::alter_all() {
  ++stats_.pram_steps;
  // Set semantics: loops and duplicates carry no information. Both lists go
  // through the same parallel ALTER / pack / bucketed-dedup kernels.
  alter(arcs_, forest_);
  drop_loops(arcs_);
  dedup_arcs(arcs_);
  alter(added_, forest_);
  drop_loops(added_);
  dedup_arcs(added_);
}

void ExpandMaxlink::mark_endpoints(std::vector<std::uint8_t>& flags) const {
  flags.resize(n_);
  util::parallel_for(0, n_, [&](std::size_t v) { flags[v] = 0; });
  auto mark = [&](const std::vector<Arc>& arcs) {
    util::parallel_for(0, arcs.size(), [&](std::size_t i) {
      const Arc& a = arcs[i];
      if (a.u == a.v) return;
      util::relaxed_store(flags[a.u], std::uint8_t{1});
      util::relaxed_store(flags[a.v], std::uint8_t{1});
    });
  };
  mark(arcs_);
  mark(added_);
}

std::uint64_t ExpandMaxlink::tally_raises(
    const std::vector<std::uint8_t>& flags) {
  const std::uint32_t max_new = util::parallel_reduce(
      std::size_t{0}, n_, std::uint32_t{0},
      [&](std::size_t v) { return flags[v] ? level_[v] : 0u; },
      [](std::uint32_t a, std::uint32_t b) { return std::max(a, b); });
  if (max_new == 0) return 0;  // raised levels are >= 2, so 0 means none
  // Per-level tallies in one blocked histogram; bin 0 collects the
  // non-raised vertices and is discarded.
  const std::vector<std::uint64_t> counts = util::parallel_histogram(
      n_, max_new + 1,
      [&](std::size_t v) -> std::size_t { return flags[v] ? level_[v] : 0; });
  std::uint64_t raises = 0;
  if (stats_.level_histogram.size() <= max_new)
    stats_.level_histogram.resize(max_new + 1, 0);
  for (std::uint32_t lvl = 1; lvl <= max_new; ++lvl) {
    stats_.level_histogram[lvl] += counts[lvl];
    raises += counts[lvl];
  }
  stats_.level_raises += raises;
  stats_.max_level = std::max(stats_.max_level, max_new);
  return raises;
}

bool ExpandMaxlink::round() {
  ++round_;
  const std::uint64_t collisions_before = stats_.hash_collisions;
  const std::uint64_t raises_before = stats_.level_raises;
  const util::PairwiseHash h =
      util::PairwiseHash::from_seed(seed_, 0x4000 + round_);

  bool parent_changed = false;
  bool level_changed = false;

  // ---- Step (1): MAXLINK; ALTER.
  maxlink(static_cast<int>(policy_.maxlink_iterations), parent_changed);
  alter_all();

  // Active roots: roots that still have a non-loop incident edge. Inactive
  // roots are finished with their component's contraction; exempting them
  // from the random raise is what lets the break condition fire (their
  // levels would otherwise churn forever without making progress).
  mark_endpoints(active_);

  // ---- Step (2): random pre-emptive level raises. Counter-based coins —
  // mix64(seed, round, v) — so every root's draw is its own function of
  // (seed, round) and the step parallelises thread-count invariantly.
  ++stats_.pram_steps;
  raised_.resize(n_);
  util::parallel_for(0, n_, [&](std::size_t v) {
    raised_[v] = 0;
    if (!exists_[v] || !active_[v] ||
        !forest_.is_root(static_cast<VertexId>(v)))
      return;
    const double coin =
        util::counter_uniform(util::mix64(seed_, 0x3000 + round_, v));
    if (coin < policy_.raise_probability(budget_[v])) {
      ++level_[v];
      raised_[v] = 1;
    }
  });
  if (tally_raises(raised_) > 0) level_changed = true;

  // ---- Step (3): hash equal-budget root neighbours into fresh tables —
  // one epoch-reset slab generation with per-root capacities (non-roots get
  // no bucket at all).
  ++stats_.pram_steps;
  coll_.resize(n_);
  auto is_root_vertex = [&](VertexId v) {
    return exists_[v] && forest_.is_root(v);
  };
  caps_.resize(n_);
  util::parallel_for(0, n_, [&](std::size_t v) {
    caps_[v] = is_root_vertex(static_cast<VertexId>(v))
                   ? policy_.table_capacity(budget_[v])
                   : 0;
  });
  table_.reset_variable(caps_);
  // Self first (v ∈ N(v): without it, Step (5) would keep "discovering" v
  // through a neighbour's table and the closure test of the break
  // condition could never settle), then equal-budget root neighbours in
  // arc order, original arcs before added ones.
  const std::size_t na = arcs_.size();
  seed_tables(
      table_, h, na + added_.size(),
      [&](std::size_t i) -> const Arc& {
        return i < na ? arcs_[i] : added_[i - na];
      },
      [&](VertexId v) { return caps_[v] != 0 ? v : graph::kInvalidVertex; },
      [&](VertexId v, VertexId w) {
        return is_root_vertex(v) && is_root_vertex(w) &&
                       budget_[w] == budget_[v]
                   ? v
                   : kNoTable;
      },
      coll_, fill_);

  // ---- Step (4): collisions mark dormant; dormancy propagates one hop.
  ++stats_.pram_steps;
  dormant_.resize(n_);
  dormant0_.resize(n_);
  util::parallel_for(0, n_, [&](std::size_t v) {
    dormant0_[v] = table_.collided(static_cast<std::uint32_t>(v)) ? 1 : 0;
    dormant_[v] = dormant0_[v];
  });
  util::parallel_for(0, n_, [&](std::size_t v) {
    if (caps_[v] == 0) return;
    table_.for_each(static_cast<std::uint32_t>(v), [&](VertexId w) {
      if (dormant0_[w]) dormant_[v] = 1;
    });
  });

  // ---- Step (5): one doubling step H(v) ∪= H(w), w ∈ H(v), read from the
  // flat slab snapshot. Tables are indexed by vertex, and a non-root's is
  // empty.
  ++stats_.pram_steps;
  closure_.resize(n_);
  table_.snapshot_into(snap_words_);
  util::parallel_for(0, n_, [&](std::size_t v) {
    const DoubleResult r =
        double_table(table_, snap_words_, static_cast<std::uint32_t>(v), h,
                     [](VertexId w) { return w; });
    closure_[v] = r.grew;
    coll_[v] += r.collisions;
    if (r.collisions > 0) dormant_[v] = 1;
  });
  stats_.hash_collisions += util::parallel_reduce(
      std::size_t{0}, n_, std::uint64_t{0},
      [&](std::size_t v) { return coll_[v]; },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  const bool closure_new = util::parallel_reduce(
      std::size_t{0}, n_, false,
      [&](std::size_t v) { return closure_[v] != 0; },
      [](bool a, bool b) { return a || b; });

  // Table contents become added edges of the current graph (every root
  // holds itself, so count() - 1 non-self items each).
  util::parallel_emit(
      n_, emit_tmp_,
      [&](std::size_t v) -> std::size_t {
        return caps_[v] == 0
                   ? 0
                   : table_.count(static_cast<std::uint32_t>(v)) - 1;
      },
      [&](std::size_t v, Arc* dst) {
        table_.for_each(static_cast<std::uint32_t>(v), [&](VertexId w) {
          if (w != static_cast<VertexId>(v))
            *dst++ = {static_cast<VertexId>(v), w, 0};
        });
      });
  added_.insert(added_.end(), emit_tmp_.begin(), emit_tmp_.end());

  // ---- Step (6): MAXLINK; SHORTCUT; ALTER.
  maxlink(static_cast<int>(policy_.maxlink_iterations), parent_changed);
  if (forest_.shortcut()) parent_changed = true;
  ++stats_.pram_steps;
  alter_all();

  // ---- Step (7): forced raises for dormant roots that skipped Step (2).
  ++stats_.pram_steps;
  forced_.resize(n_);
  util::parallel_for(0, n_, [&](std::size_t v) {
    forced_[v] = 0;
    if (!exists_[v] || !forest_.is_root(static_cast<VertexId>(v))) return;
    if (dormant_[v] && !raised_[v]) {
      ++level_[v];
      forced_[v] = 1;
    }
  });
  if (tally_raises(forced_) > 0) level_changed = true;

  // ---- Step (8): reassign blocks; the space ledger moves to reduces.
  ++stats_.pram_steps;
  new_words_.resize(n_);
  util::parallel_for(0, n_, [&](std::size_t v) {
    new_words_[v] = 0;
    if (!exists_[v] || !forest_.is_root(static_cast<VertexId>(v))) return;
    const std::uint64_t nb = policy_.budget_for_level(level_[v]);
    if (nb != budget_[v]) {
      budget_[v] = nb;
      new_words_[v] = nb;
    }
  });
  stats_.total_block_words += util::parallel_reduce(
      std::size_t{0}, n_, std::uint64_t{0},
      [&](std::size_t v) { return new_words_[v]; },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  const std::uint64_t block_words_in_use = util::parallel_reduce(
      std::size_t{0}, n_, std::uint64_t{0},
      [&](std::size_t v) { return exists_[v] ? budget_[v] : 0; },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  // Both lists hold 3-word Arcs now that added_ reuses the arc kernels.
  stats_.peak_space_words =
      std::max(stats_.peak_space_words,
               arcs_.size() * 3 + added_.size() * 3 + block_words_in_use);
  ++stats_.rounds;

  if (trace_enabled_) {
    RoundTrace t;
    t.round = round_;
    mark_endpoints(active_);
    t.roots = util::parallel_reduce(
        std::size_t{0}, n_, std::uint64_t{0},
        [&](std::size_t v) {
          return static_cast<std::uint64_t>(
              exists_[v] && forest_.is_root(static_cast<VertexId>(v)));
        },
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
    t.active_roots = util::parallel_reduce(
        std::size_t{0}, n_, std::uint64_t{0},
        [&](std::size_t v) {
          return static_cast<std::uint64_t>(
              exists_[v] && forest_.is_root(static_cast<VertexId>(v)) &&
              active_[v]);
        },
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
    t.max_level = util::parallel_reduce(
        std::size_t{0}, n_, std::uint32_t{0},
        [&](std::size_t v) {
          return exists_[v] && forest_.is_root(static_cast<VertexId>(v))
                     ? level_[v]
                     : 0u;
        },
        [](std::uint32_t a, std::uint32_t b) { return std::max(a, b); });
    t.arcs = arcs_.size();
    t.added_edges = added_.size();
    t.collisions = stats_.hash_collisions - collisions_before;
    t.raises = stats_.level_raises - raises_before;
    trace_.push_back(t);
  }

  return !parent_changed && !level_changed && !closure_new;
}

std::vector<Arc> ExpandMaxlink::remaining_arcs() const {
  std::vector<Arc> out = arcs_;
  out.insert(out.end(), added_.begin(), added_.end());
  drop_loops(out);
  dedup_arcs(out);
  return out;
}

}  // namespace logcc::core
