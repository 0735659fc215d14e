#include "core/expand.hpp"

#include <algorithm>

#include "util/arena.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/scan.hpp"

namespace logcc::core {

namespace {

/// Buckets for the occupancy partition: a pure function of the slot count.
/// It starts at 2, so the key shift below stays under 64.
std::size_t occupancy_bucket_count(std::size_t n) {
  std::size_t buckets = 2;
  while (buckets < 256 && buckets * util::kSerialGrain < n) buckets <<= 1;
  return buckets;
}

}  // namespace

ExpandEngine::ExpandEngine(std::uint64_t n, std::span<const VertexId> ongoing,
                           std::span<const Arc> arcs,
                           const ExpandParams& params, RunStats& stats,
                           ExpandScratch& scratch)
    : n_(n),
      ongoing_(ongoing.begin(), ongoing.end()),
      arcs_(arcs),
      params_(params),
      stats_(stats),
      hb_(util::PairwiseHash::from_seed(params.seed, 0xb10c)),
      hv_(util::PairwiseHash::from_seed(params.seed, 0x7ab1e)),
      scratch_(scratch) {
  LOGCC_CHECK(params_.block_count >= 1);
  LOGCC_CHECK(params_.table_capacity >= 2);
  const std::uint32_t num = num_slots();
  // The hoisted slot map holds kNoSlot everywhere except the previous
  // engine's ongoing set, which its destructor reset — only fresh entries
  // need initialising.
  auto& slot_of = scratch_.slot_of;
  const std::size_t old_size = slot_of.size();
  if (old_size < n_) slot_of.resize(n_);
  util::parallel_for(old_size, n_,
                     [&](std::size_t v) { slot_of[v] = kNoSlot; });
  util::parallel_for(0, num, [&](std::size_t s) {
    LOGCC_CHECK(ongoing_[s] < n_);
    // Concurrent writers disagree only on duplicate ids, which the
    // verification pass below turns into a deterministic failure.
    util::relaxed_store(slot_of[ongoing_[s]],
                        static_cast<std::uint32_t>(s));
  });
  util::parallel_for(0, num, [&](std::size_t s) {
    LOGCC_CHECK_MSG(slot_of[ongoing_[s]] == s, "duplicate ongoing id");
  });
  // Tables live in the scratch's contiguous slab: epoch-reset is O(num)
  // bookkeeping (no per-cell zeroing, no per-table vectors), and across
  // phases the slab memory is reused outright.
  scratch_.tables.reset_uniform(num, params_.table_capacity);
  scratch_.owns_block.resize(num);
  scratch_.dormant_round.resize(num);
  util::parallel_for(0, num, [&](std::size_t s) {
    scratch_.owns_block[s] = 0;
    scratch_.dormant_round[s] = kNeverDormant;
  });
  scratch_.collisions.resize(num);
}

ExpandEngine::~ExpandEngine() {
  auto& slot_of = scratch_.slot_of;
  util::parallel_for(0, ongoing_.size(),
                     [&](std::size_t s) { slot_of[ongoing_[s]] = kNoSlot; });
}

void ExpandEngine::flush_collisions() {
  auto& coll = scratch_.collisions;
  stats_.hash_collisions += util::parallel_reduce(
      std::size_t{0}, coll.size(), std::uint64_t{0},
      [&](std::size_t s) { return coll[s]; },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
}

void ExpandEngine::assign_blocks() {
  // h_B maps each ongoing vertex to a block; owning = unique occupant
  // (detected CRCW-style: write your id, re-read, then a second pass where
  // losers invalidate the cell — host-side we count occupants per key).
  // Parallel occupancy: stable bucket partition of (block key, slot) pairs
  // by mixed key bits, then a per-bucket sort + run scan. Every slot
  // appears exactly once, so the owner writes are disjoint. The bucket
  // count keys on the slot count only, so results never depend on the
  // thread count.
  const std::uint32_t num = num_slots();
  auto& owns_block = scratch_.owns_block;
  auto& dormant_round = scratch_.dormant_round;
  auto& keys = scratch_.block_keys;
  auto& scattered = scratch_.block_keys_tmp;
  keys.resize(num);
  util::parallel_for(0, num, [&](std::size_t s) {
    keys[s] = {hb_(ongoing_[s], params_.block_count),
               static_cast<std::uint32_t>(s)};
  });
  const std::size_t buckets = occupancy_bucket_count(num);
  const int shift = 64 - std::countr_zero(buckets);
  scattered.resize(keys.size());
  util::ScratchBuffer<std::size_t> begin(buckets + 1);
  util::parallel_bucket_partition_into(
      keys.data(), keys.size(), scattered.data(), begin.span(), buckets,
      [shift](const auto& kv) {
        return static_cast<std::size_t>(util::mix64(kv.first) >> shift);
      });
  util::parallel_for_blocks(buckets, [&](std::size_t k) {
    auto* lo = scattered.data() + begin[k];
    auto* hi = scattered.data() + begin[k + 1];
    std::sort(lo, hi);
    for (auto* p = lo; p != hi;) {
      auto* q = p + 1;
      while (q != hi && q->first == p->first) ++q;
      const bool owner = (q - p) == 1;
      for (; p != q; ++p) {
        owns_block[p->second] = owner;
        if (!owner) dormant_round[p->second] = 0;
      }
    }
  });
  stats_.pram_steps += 2;
}

void ExpandEngine::seed() {
  // Step (3): over every arc between ongoing vertices, an end without a
  // block marks the other dormant (idempotent store of round 0), and a
  // block owner's table takes itself, then its neighbours in arc order.
  const auto& slot_of = scratch_.slot_of;
  const auto& owns_block = scratch_.owns_block;
  auto& dormant_round = scratch_.dormant_round;
  util::parallel_for(0, arcs_.size(), [&](std::size_t i) {
    const std::uint32_t su = slot_of[arcs_[i].u], sv = slot_of[arcs_[i].v];
    if (su == kNoSlot || sv == kNoSlot) return;
    if (!owns_block[su]) util::relaxed_store(dormant_round[sv], 0u);
    if (!owns_block[sv]) util::relaxed_store(dormant_round[su], 0u);
  });
  TableSlab& tables = scratch_.tables;
  seed_tables(
      tables, hv_, arcs_.size(),
      [&](std::size_t i) -> const Arc& { return arcs_[i]; },
      [&](std::uint32_t s) {
        return owns_block[s] ? ongoing_[s] : graph::kInvalidVertex;
      },
      [&](VertexId v, VertexId w) {
        const std::uint32_t sv = slot_of[v];
        return sv != kNoSlot && slot_of[w] != kNoSlot && owns_block[sv]
                   ? sv
                   : kNoSlot;
      },
      scratch_.collisions, scratch_.fill);
  flush_collisions();
  // Step (4): collisions observed in round 0.
  util::parallel_for(0, num_slots(), [&](std::size_t s) {
    if (tables.collided(static_cast<std::uint32_t>(s))) dormant_round[s] = 0;
  });
  stats_.pram_steps += 2;
}

void ExpandEngine::snapshot_history() {
  if (!params_.keep_history) return;
  // One packed list per round, reused across phases: per-slot counts, an
  // exclusive prefix sum, then each slot fills its range in cell order.
  auto& hist = scratch_.history;
  if (hist.size() == history_rounds_) hist.emplace_back();
  PackedTables& packed = hist[history_rounds_++];
  const std::uint32_t num = num_slots();
  const TableSlab& tables = scratch_.tables;
  auto& begin = packed.begin;
  begin.resize(std::size_t{num} + 1);
  util::parallel_for(0, num, [&](std::size_t s) {
    begin[s] = tables.count(static_cast<std::uint32_t>(s));
  });
  begin[num] = util::parallel_prefix_sum(begin.data(), num);
  packed.items.resize(begin[num]);
  util::parallel_for(0, num, [&](std::size_t s) {
    VertexId* out = packed.items.data() + begin[s];
    tables.for_each(static_cast<std::uint32_t>(s),
                    [&](VertexId w) { *out++ = w; });
  });
}

void ExpandEngine::doubling_rounds() {
  const std::uint32_t num = num_slots();
  const auto& slot_of = scratch_.slot_of;
  auto& coll = scratch_.collisions;
  const auto& owns_block = scratch_.owns_block;
  auto& dormant_round = scratch_.dormant_round;
  TableSlab& tables = scratch_.tables;

  auto& changed = scratch_.changed;          // table changed last round
  auto& went_dormant = scratch_.went_dormant;
  auto& dormant_in = scratch_.dormant_in;
  auto& changed_now = scratch_.changed_now;
  auto& dormant_now = scratch_.dormant_now;
  changed.resize(num);
  went_dormant.resize(num);
  dormant_in.resize(num);
  changed_now.resize(num);
  dormant_now.resize(num);
  util::parallel_for(0, num, [&](std::size_t s) {
    changed[s] = 1;
    went_dormant[s] = dormant_round[s] != kNeverDormant;
  });
  auto& snap = scratch_.snapshot_words;

  for (std::uint32_t round = 1; round <= params_.max_rounds; ++round) {
    // Safe here even when a phase loop above holds the arena: between
    // kernel calls nothing lives in it (the RoundArena rule).
    util::scratch_arena_round_reset();
    ++stats_.pram_steps;
    ++stats_.expand_rounds;

    // Snapshot table contents (synchronous semantics: this round reads the
    // previous round's tables) as ONE flat copy of the slab — no per-slot
    // item vectors — and dormancy entering this round.
    tables.snapshot_into(snap);
    util::parallel_for(0, num, [&](std::size_t s) {
      dormant_in[s] = dormant_round[s] != kNeverDormant;
      changed_now[s] = 0;
      dormant_now[s] = 0;
      coll[s] = 0;
    });

    // One doubling step, parallel over slots: slot s reads only the
    // snapshots and writes only its own table/flags/tally.
    util::parallel_for(0, num, [&](std::size_t s) {
      if (!owns_block[s]) return;
      const auto t = static_cast<std::uint32_t>(s);
      // Skip slots whose whole 2-neighbourhood in table space is stable.
      bool needs_work = changed[s] != 0;
      if (!needs_work) {
        tables.for_each_in(snap, t, [&](VertexId v) {
          std::uint32_t sv = slot_of[v];
          if (sv != kNoSlot && (changed[sv] || went_dormant[sv]))
            needs_work = true;
        });
      }
      if (!needs_work) return;
      // Dormancy hops one step: a member that entered this round dormant
      // makes s dormant, as does a collision.
      bool hop = false;
      const DoubleResult r =
          double_table(tables, snap, t, hv_, [&](VertexId v) {
            const std::uint32_t sv = slot_of[v];
            if (sv != kNoSlot && dormant_in[sv]) hop = true;
            return sv;
          });
      coll[s] = r.collisions;
      changed_now[s] = r.grew;
      if ((hop || r.collisions > 0) && dormant_round[s] == kNeverDormant) {
        dormant_round[s] = round;
        dormant_now[s] = 1;
      }
    });
    flush_collisions();
    const bool any_change = util::parallel_reduce(
        std::size_t{0}, static_cast<std::size_t>(num), false,
        [&](std::size_t s) { return (changed_now[s] | dormant_now[s]) != 0; },
        [](bool a, bool b) { return a || b; });

    rounds_ = round;
    snapshot_history();
    changed.swap(changed_now);
    went_dormant.swap(dormant_now);
    if (!any_change) break;
  }
}

void ExpandEngine::run() {
  assign_blocks();
  seed();
  snapshot_history();  // H_0
  doubling_rounds();
}

std::span<const VertexId> ExpandEngine::history(std::uint32_t j,
                                                std::uint32_t slot) const {
  LOGCC_CHECK_MSG(params_.keep_history, "history not retained");
  LOGCC_CHECK(j < history_rounds_);
  const PackedTables& packed = scratch_.history[j];
  return {packed.items.data() + packed.begin[slot],
          packed.begin[slot + 1] - packed.begin[slot]};
}

}  // namespace logcc::core
