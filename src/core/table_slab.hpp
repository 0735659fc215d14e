// The per-vertex hash tables of the paper's hashing primitive (§2.2), in one
// bucketized, cache-line-aligned backing store: EXPAND's H(u), EXPAND-
// MAXLINK's tables and TREE-LINK's Q'(u) all live in a TableSlab.
//
// CRCW semantics, per table: a vertex w is written into cell h(w) and the
// cell is re-read. The first writer of an empty cell wins and the insert is
// kNew; writing the vertex a cell already holds is kPresent (concurrent
// equal writes are harmless on a CRCW machine, which is how hashing drops
// duplicate neighbours); writing a different vertex into an occupied cell
// is a kCollision, which stores nothing and sets the table's sticky
// collided() flag. The table never resolves a collision: the algorithms
// react to it (mark dormant, raise a level, reject a radius).
// tests/test_table_slab.cpp replays 10k seeded fill sequences against a
// flat first-writer-wins table to pin this.
//
// Layout: every table is a fixed-slot bucket inside one contiguous 64-byte-
// aligned slab, instead of one heap vector per table (scattered tiny
// allocations, pointer-chased on every table-to-table hop of a doubling
// round):
//
//   slab (64B-aligned) ───────────────────────────────────────────────
//   │ bucket 0          │ bucket 1          │ bucket 2          │ ...
//   │ slot slot .. pad  │ slot slot .. pad  │ slot slot .. pad  │
//   └──────────────────────────────────────────────────────────────────
//
// Each slot is one 64-bit word `(epoch << 32) | vertex`: a slot is live iff
// its top half equals the slab's current epoch. Bucket strides are chosen
// so a bucket never straddles a cache line — capacities <= 8 get a
// power-of-two stride (1/2/4/8 words, i.e. at most one 64B line probed per
// table), larger ones round up to whole lines — so probing a table touches
// the minimum number of lines and a doubling sweep walks the slab almost
// sequentially.
//
// The epoch stamp is what makes per-round reuse O(1): reset() bumps the
// epoch and every slot in the slab is logically empty again — no per-cell
// re-zeroing, no per-table vector churn. Only freshly grown slab memory is
// zeroed (in parallel, so the pages are first-touched under the same
// contiguous lane segmentation the fill loops use), and an epoch wrap
// (once per 2^32 resets) re-zeroes defensively.
//
// Synchronous rounds ("this round reads last round's tables") snapshot the
// slab with one flat word copy (snapshot_into) instead of materializing
// per-table item vectors; for_each_in iterates a table's items inside such
// a snapshot with the same cell order as for_each.
//
// Expansion (§2.2) is the two kernels below the class, which EXPAND and
// EXPAND-MAXLINK both run: seed_tables fills every table from its owner and
// the arcs, double_table runs one synchronous H(t) ∪= H(x), x ∈ H(t) step.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "util/check.hpp"
#include "util/hashing.hpp"
#include "util/scan.hpp"

namespace logcc::core {

class TableSlab {
 public:
  enum class Insert { kNew, kPresent, kCollision };

  TableSlab() = default;
  TableSlab(const TableSlab&) = delete;
  TableSlab& operator=(const TableSlab&) = delete;

  /// Rebuilds the slab as `num` tables of identical `capacity` (>= 1) and
  /// marks every table empty / not-collided. O(num) + a slab grow on first
  /// use; steady state touches no heap.
  void reset_uniform(std::uint32_t num, std::uint32_t capacity);

  /// Rebuilds the slab as `caps.size()` tables with per-table capacities
  /// (0 = table absent: no slots, all queries empty). Buckets are padded to
  /// whole cache lines so mixed capacities stay line-aligned.
  void reset_variable(std::span<const std::uint32_t> caps);

  std::uint32_t num_tables() const { return num_; }

  std::uint32_t capacity(std::uint32_t t) const {
    return uniform_ ? ucap_ : cap_[t];
  }
  std::uint32_t count(std::uint32_t t) const { return count_[t]; }
  bool collided(std::uint32_t t) const { return collided_[t] != 0; }

  /// Writes `w` into cell `cell` of table `t` with the CRCW semantics above;
  /// the caller computes cell = h(w, capacity(t)).
  Insert insert_at(std::uint32_t t, std::uint32_t cell, graph::VertexId w) {
    LOGCC_DCHECK(cell < capacity(t));
    std::uint64_t& word = words_[base(t) + cell];
    const std::uint64_t tagged = tag_ | w;
    if (word == tagged) return Insert::kPresent;
    if ((word >> 32) != epoch_) {
      word = tagged;
      ++count_[t];
      return Insert::kNew;
    }
    collided_[t] = 1;
    return Insert::kCollision;
  }

  bool contains_at(std::uint32_t t, std::uint32_t cell,
                   graph::VertexId w) const {
    return cell < capacity(t) && words_[base(t) + cell] == (tag_ | w);
  }

  /// Iterates occupied cells of table `t` in cell order.
  template <typename Fn>
  void for_each(std::uint32_t t, Fn&& fn) const {
    for_each_in({words_, words_size_}, t, fn);
  }

  /// One flat copy of the live slab words — the whole-generation snapshot a
  /// synchronous round reads while it rewrites the live tables.
  void snapshot_into(std::vector<std::uint64_t>& snap) const;

  /// for_each over table `t` as captured in a snapshot_into copy taken this
  /// epoch.
  template <typename Fn>
  void for_each_in(std::span<const std::uint64_t> words, std::uint32_t t,
                   Fn&& fn) const {
    const std::uint64_t* w = words.data() + base(t);
    const std::uint32_t cap = capacity(t);
    for (std::uint32_t c = 0; c < cap; ++c)
      if ((w[c] >> 32) == epoch_)
        fn(static_cast<graph::VertexId>(w[c]));
  }

  /// Raw cell image of table `t` — kInvalidVertex in empty cells (tests
  /// compare these across layouts).
  std::vector<graph::VertexId> cells(std::uint32_t t) const {
    std::vector<graph::VertexId> out(capacity(t), graph::kInvalidVertex);
    const std::uint64_t* w = words_ + base(t);
    for (std::uint32_t c = 0; c < out.size(); ++c)
      if ((w[c] >> 32) == epoch_) out[c] = static_cast<graph::VertexId>(w[c]);
    return out;
  }

  /// Heap allocations the slab itself ever made (stable in steady state).
  std::uint64_t slab_allocations() const { return slab_allocations_; }
  std::size_t slab_words() const { return words_size_; }

 private:
  std::size_t base(std::uint32_t t) const {
    return uniform_ ? static_cast<std::size_t>(t) * stride_ : offset_[t];
  }
  void ensure_words(std::size_t total);
  void bump_epoch();

  std::unique_ptr<std::uint64_t[]> storage_;  // words_ + alignment slack
  std::uint64_t* words_ = nullptr;            // 64B-aligned view of storage_
  std::size_t words_size_ = 0;                // words in use this generation
  std::size_t words_cap_ = 0;                 // words allocated
  std::uint32_t epoch_ = 1;
  std::uint64_t tag_ = std::uint64_t{1} << 32;  // epoch_ << 32
  std::uint32_t num_ = 0;
  bool uniform_ = true;
  std::uint32_t ucap_ = 0;      // uniform mode: capacity
  std::size_t stride_ = 0;      // uniform mode: words per bucket
  std::vector<std::uint32_t> cap_;       // variable mode
  std::vector<std::size_t> offset_;      // variable mode, num_ + 1 entries
  std::vector<std::uint32_t> count_;
  std::vector<std::uint8_t> collided_;
  std::uint64_t slab_allocations_ = 0;
};

/// Lightweight const view of one slab table — what ExpandEngine::table()
/// hands to VOTE / LINK / tests.
class TableView {
 public:
  TableView(const TableSlab* slab, std::uint32_t t) : slab_(slab), t_(t) {}

  std::uint32_t capacity() const { return slab_->capacity(t_); }
  std::uint32_t count() const { return slab_->count(t_); }
  bool collided() const { return slab_->collided(t_); }
  bool contains_at(std::uint32_t cell, graph::VertexId w) const {
    return slab_->contains_at(t_, cell, w);
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    slab_->for_each(t_, fn);
  }
  std::vector<graph::VertexId> items() const {
    std::vector<graph::VertexId> out;
    out.reserve(count());
    for_each([&](graph::VertexId w) { out.push_back(w); });
    return out;
  }
  std::vector<graph::VertexId> cells() const { return slab_->cells(t_); }

 private:
  const TableSlab* slab_;
  std::uint32_t t_;
};

/// What the kernels' mappings return for an arc that fills no table, or a
/// member without one.
inline constexpr std::uint32_t kNoTable = static_cast<std::uint32_t>(-1);

/// seed_tables' (table, item) fill pairs, hoisted by its callers.
struct SeedScratch {
  std::vector<std::pair<std::uint32_t, graph::VertexId>> items, grouped;
};

/// Expansion's seeding: every present table t takes its owner first, then
/// the far end of each directed arc that fills it, in arc order (arc i's
/// u→v before its v→u); item w goes to cell h(w, capacity(t)). `arc_at(i)`
/// is arc i < num_arcs; `owner(t)` is t's vertex, or kInvalidVertex for an
/// absent table; `fills(x, y)` is the table the arc x→y fills, or kNoTable.
/// coll[t] gets table t's collisions. Each table replays its own items
/// serially, so cells and tallies are the same for every thread count.
template <typename ArcAt, typename Owner, typename Fills>
void seed_tables(TableSlab& tables, const util::PairwiseHash& h,
                 std::size_t num_arcs, ArcAt&& arc_at, Owner&& owner,
                 Fills&& fills, std::span<std::uint64_t> coll,
                 SeedScratch& scratch) {
  util::parallel_emit(
      num_arcs, scratch.items,
      [&](std::size_t i) -> std::size_t {
        const auto& a = arc_at(i);
        return (fills(a.u, a.v) != kNoTable) + (fills(a.v, a.u) != kNoTable);
      },
      [&](std::size_t i, std::pair<std::uint32_t, graph::VertexId>* dst) {
        const auto& a = arc_at(i);
        if (const std::uint32_t t = fills(a.u, a.v); t != kNoTable)
          *dst++ = {t, a.v};
        if (const std::uint32_t t = fills(a.v, a.u); t != kNoTable)
          *dst = {t, a.u};
      });
  const std::uint32_t num = tables.num_tables();
  util::ScratchBuffer<std::size_t> begin(std::size_t{num} + 1);
  util::parallel_group_by_into(scratch.items, scratch.grouped, num,
                               [](const auto& it) { return it.first; },
                               begin.span());
  util::parallel_for(0, num, [&](std::size_t s) {
    const auto t = static_cast<std::uint32_t>(s);
    coll[t] = 0;
    const graph::VertexId o = owner(t);
    if (o == graph::kInvalidVertex) return;
    const std::uint32_t cap = tables.capacity(t);
    auto put = [&](graph::VertexId w) {
      coll[t] += tables.insert_at(t, static_cast<std::uint32_t>(h(w, cap)),
                                  w) == TableSlab::Insert::kCollision;
    };
    put(o);
    for (std::size_t i = begin[t]; i < begin[t + 1]; ++i)
      put(scratch.grouped[i].second);
  });
}

struct DoubleResult {
  bool grew = false;  // an item went in new
  std::uint64_t collisions = 0;
};

/// Expansion's doubling step for table t: H(t) ∪= H(x), x ∈ H(t), both read
/// from `snap`, a snapshot_into copy of this generation. `table_of(x)`,
/// called once per member x, is the table holding H(x), or kNoTable to skip
/// x. Writes table t only, so a parallel sweep over tables is one
/// synchronous step.
template <typename TableOf>
DoubleResult double_table(TableSlab& tables,
                          std::span<const std::uint64_t> snap, std::uint32_t t,
                          const util::PairwiseHash& h, TableOf&& table_of) {
  DoubleResult r;
  const std::uint32_t cap = tables.capacity(t);
  tables.for_each_in(snap, t, [&](graph::VertexId x) {
    const std::uint32_t tx = table_of(x);
    if (tx == kNoTable) return;
    tables.for_each_in(snap, tx, [&](graph::VertexId w) {
      const auto ins =
          tables.insert_at(t, static_cast<std::uint32_t>(h(w, cap)), w);
      r.grew |= ins == TableSlab::Insert::kNew;
      r.collisions += ins == TableSlab::Insert::kCollision;
    });
  });
  return r;
}

}  // namespace logcc::core
