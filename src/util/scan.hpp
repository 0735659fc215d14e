// Blocked data-parallel primitives on top of parallel_for: prefix sum,
// reduce, pack/emit, histogram, bucket partition and group-by, and atomic
// min/max helpers.
//
// Everything here is DETERMINISTIC regardless of thread count: work is split
// into blocks whose number depends only on the input size, per-block partials
// are combined in block order, and pack/emit preserve input order. That
// determinism is the contract the algorithm layer builds on — a PRAM step
// implemented with these primitives produces bit-identical output under
// OMP_NUM_THREADS=1 and =N (see tests/test_scan.cpp) and under every
// dispatch backend (pool / serial, see parallel.hpp).
//
// Below `kSerialGrain` elements every primitive degrades to the obvious
// serial loop, so callers never pay threading overhead on small inputs.
//
// Internal temporaries (per-block partials, counting grids, pack staging)
// are util::ScratchBuffer: when a round-scratch arena is active (see
// util/arena.hpp and core/round_arena.hpp) they cost zero heap allocations
// in steady state; without one they fall back to the heap. The `_into`
// primitives additionally let round loops supply the *result* storage, so
// a whole round can run allocation-free.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/arena.hpp"
#include "util/parallel.hpp"

namespace logcc::util {

/// Number of blocks a range of `n` elements is split into. Depends only on
/// `n` (never on the thread count) so blocked results are reproducible.
std::size_t scan_block_count(std::size_t n);

namespace detail {
inline std::size_t block_begin(std::size_t n, std::size_t blocks,
                               std::size_t b) {
  return n / blocks * b + std::min(b, n % blocks);
}
}  // namespace detail

/// Lock-free fetch-min on a plain integer slot. Relaxed ordering: callers
/// combine it with the parallel_for join for visibility. Precondition: the
/// slot outlives the parallel region and is only accessed through atomic
/// helpers within it. Postcondition (after the join): slot holds the min of
/// its prior value and every offered value — commutative, hence
/// thread-count invariant.
template <typename T>
inline void atomic_min(T& slot, T value) {
  std::atomic_ref<T> ref(slot);
  T cur = ref.load(std::memory_order_relaxed);
  while (value < cur &&
         !ref.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

/// Fetch-max counterpart of atomic_min. With keys packed as
/// (priority << k) | id, this realises the CRCW "maximum-priority write
/// wins" resolution deterministically.
template <typename T>
inline void atomic_max(T& slot, T value) {
  std::atomic_ref<T> ref(slot);
  T cur = ref.load(std::memory_order_relaxed);
  while (value > cur &&
         !ref.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

/// Relaxed atomic store for idempotent flag writes: every concurrent writer
/// stores the same value, so the result is thread-count invariant — the
/// atomic_ref only exists so the (benign) write race is race-free under
/// TSan.
template <typename T>
inline void relaxed_store(T& slot, T value) {
  std::atomic_ref<T>(slot).store(value, std::memory_order_relaxed);
}

/// Reduction of map(i) over [begin, end) with the associative op `op`.
/// Per-block partials fold left-to-right and blocks combine in block order,
/// so the result is identical for every thread count (for associative ops).
template <typename T, typename Map, typename Op>
T parallel_reduce(std::size_t begin, std::size_t end, T identity, Map&& map,
                  Op&& op) {
  if (end <= begin) return identity;
  const std::size_t n = end - begin;
  if (n < kSerialGrain) {
    T acc = identity;
    for (std::size_t i = begin; i < end; ++i) acc = op(acc, map(i));
    return acc;
  }
  const std::size_t blocks = scan_block_count(n);
  // Raw storage, NOT std::vector<T>: with T=bool a vector would bit-pack
  // the partials and concurrent per-block writes become racy word RMWs.
  ScratchBuffer<T> partial(blocks);
  parallel_for_blocks(blocks, [&](std::size_t b) {
    T acc = identity;
    const std::size_t lo = begin + detail::block_begin(n, blocks, b);
    const std::size_t hi = begin + detail::block_begin(n, blocks, b + 1);
    for (std::size_t i = lo; i < hi; ++i) acc = op(acc, map(i));
    partial[b] = acc;
  });
  T acc = identity;
  for (std::size_t b = 0; b < blocks; ++b) acc = op(acc, partial[b]);
  return acc;
}

/// Exclusive prefix sum in place; returns the total. Blocked three-phase
/// scan: per-block sums, serial scan over the (few) block sums, per-block
/// rescan with the block offset. Postcondition: data[i] holds the sum of
/// the original data[0..i), exactly as the serial loop would produce (for
/// associative, commutative +; floating-point callers accept the blocked
/// association order, which is still thread-count invariant).
template <typename T>
T parallel_prefix_sum(T* data, std::size_t n) {
  if (n == 0) return T{0};
  if (n < kSerialGrain) {
    T run{0};
    for (std::size_t i = 0; i < n; ++i) {
      T next = run + data[i];
      data[i] = run;
      run = next;
    }
    return run;
  }
  const std::size_t blocks = scan_block_count(n);
  ScratchBuffer<T> sums(blocks);
  parallel_for_blocks(blocks, [&](std::size_t b) {
    T acc{0};
    const std::size_t hi = detail::block_begin(n, blocks, b + 1);
    for (std::size_t i = detail::block_begin(n, blocks, b); i < hi; ++i)
      acc += data[i];
    sums[b] = acc;
  });
  T total{0};
  for (std::size_t b = 0; b < blocks; ++b) {
    T next = total + sums[b];
    sums[b] = total;
    total = next;
  }
  parallel_for_blocks(blocks, [&](std::size_t b) {
    T run = sums[b];
    const std::size_t hi = detail::block_begin(n, blocks, b + 1);
    for (std::size_t i = detail::block_begin(n, blocks, b); i < hi; ++i) {
      T next = run + data[i];
      data[i] = run;
      run = next;
    }
  });
  return total;
}

template <typename T>
T parallel_prefix_sum(std::vector<T>& data) {
  return parallel_prefix_sum(data.data(), data.size());
}

/// Stable pack: keeps exactly the elements with keep(v[i]) true, in their
/// original order, and shrinks `v`. Returns the number removed.
///
/// `keep` MUST be deterministic and side-effect free: it is evaluated twice
/// per element (count pass, then write pass), and a disagreement between
/// the passes overruns a block's reserved output range.
///
/// The parallel path scatters into a staging buffer and copies back.
/// In-place scatter would race: when an early block keeps few elements, a
/// later block's write range [off_b, off_b + count_b) can land inside a
/// source region another block is still reading concurrently. With an
/// active scratch arena the staging buffer is arena-backed, so a
/// steady-state pack allocates nothing; `v` only ever shrinks.
template <typename T, typename Pred>
std::size_t parallel_pack(std::vector<T>& v, Pred&& keep) {
  const std::size_t n = v.size();
  if (n < kSerialGrain) {
    std::size_t w = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (keep(v[i])) v[w++] = v[i];
    const std::size_t removed = n - w;
    v.resize(w);
    return removed;
  }
  const std::size_t blocks = scan_block_count(n);
  ScratchBuffer<std::size_t> offset(blocks);
  parallel_for_blocks(blocks, [&](std::size_t b) {
    std::size_t count = 0;
    const std::size_t hi = detail::block_begin(n, blocks, b + 1);
    for (std::size_t i = detail::block_begin(n, blocks, b); i < hi; ++i)
      count += keep(v[i]) ? 1 : 0;
    offset[b] = count;
  });
  const std::size_t kept = parallel_prefix_sum(offset.data(), blocks);
  if (kept == n) return 0;  // nothing to drop: skip the staging copy
  ScratchBuffer<T> staged(kept);
  parallel_for_blocks(blocks, [&](std::size_t b) {
    std::size_t w = offset[b];
    const std::size_t hi = detail::block_begin(n, blocks, b + 1);
    for (std::size_t i = detail::block_begin(n, blocks, b); i < hi; ++i)
      if (keep(v[i])) staged[w++] = v[i];
  });
  v.resize(kept);
  T* dst = v.data();
  const T* src = staged.data();
  const std::size_t copy_blocks = scan_block_count(kept);
  parallel_for_blocks(copy_blocks, [&](std::size_t b) {
    const std::size_t lo = detail::block_begin(kept, copy_blocks, b);
    const std::size_t hi = detail::block_begin(kept, copy_blocks, b + 1);
    std::copy(src + lo, src + hi, dst + lo);
  });
  return n - kept;
}

/// Segmented pack ("multi-emit"): index i contributes count(i) items,
/// written by emit(i, dst) into dst[0 .. count(i)); the output concatenates
/// contributions in index order. Generalises parallel_pack from 0/1 items
/// per index to any per-index count — the shape of "every directed arc
/// yields its table-fill items".
///
/// `count` and `emit` MUST be deterministic and agree (emit writes exactly
/// count(i) items): they run in separate passes, and a disagreement
/// overruns a block's reserved output range.
template <typename T, typename CountFn, typename EmitFn>
void parallel_emit(std::size_t n, std::vector<T>& out, CountFn&& count,
                   EmitFn&& emit) {
  out.clear();
  if (n == 0) return;
  if (n < kSerialGrain) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t c = count(i);
      if (c == 0) continue;
      const std::size_t base = out.size();
      out.resize(base + c);
      emit(i, out.data() + base);
    }
    return;
  }
  const std::size_t blocks = scan_block_count(n);
  ScratchBuffer<std::size_t> offset(blocks);
  parallel_for_blocks(blocks, [&](std::size_t b) {
    std::size_t c = 0;
    const std::size_t hi = detail::block_begin(n, blocks, b + 1);
    for (std::size_t i = detail::block_begin(n, blocks, b); i < hi; ++i)
      c += count(i);
    offset[b] = c;
  });
  const std::size_t total = parallel_prefix_sum(offset.data(), blocks);
  out.resize(total);
  parallel_for_blocks(blocks, [&](std::size_t b) {
    std::size_t w = offset[b];
    const std::size_t hi = detail::block_begin(n, blocks, b + 1);
    for (std::size_t i = detail::block_begin(n, blocks, b); i < hi; ++i) {
      const std::size_t c = count(i);
      if (c == 0) continue;
      emit(i, out.data() + w);
      w += c;
    }
  });
}

/// Deterministic histogram: returns counts where counts[k] = |{i : bin(i)
/// == k}|. Per-block tallies combine in block order (sums commute, so the
/// result is thread-count invariant either way). The counting grid is
/// blocks x bins words — keep `bins` modest (levels, buckets, ...), not
/// vertex-scale.
template <typename BinFn>
std::vector<std::uint64_t> parallel_histogram(std::size_t n, std::size_t bins,
                                              BinFn&& bin) {
  std::vector<std::uint64_t> counts(bins, 0);
  if (n == 0 || bins == 0) return counts;
  if (n < kSerialGrain) {
    for (std::size_t i = 0; i < n; ++i) ++counts[bin(i)];
    return counts;
  }
  const std::size_t blocks = scan_block_count(n);
  ScratchBuffer<std::uint64_t> grid(blocks * bins, /*zeroed=*/true);
  parallel_for_blocks(blocks, [&](std::size_t b) {
    std::uint64_t* row = grid.data() + b * bins;
    const std::size_t hi = detail::block_begin(n, blocks, b + 1);
    for (std::size_t i = detail::block_begin(n, blocks, b); i < hi; ++i)
      ++row[bin(i)];
  });
  for (std::size_t b = 0; b < blocks; ++b)
    for (std::size_t k = 0; k < bins; ++k) counts[k] += grid[b * bins + k];
  return counts;
}

/// Stable bucket partition, span form: scatters the n elements at `in` into
/// `out` (disjoint from `in`, at least n elements) so that bucket k
/// occupies [begin[k], begin[k+1]) of the caller-provided `begin` array
/// (buckets + 1 entries, fully overwritten), with input order preserved
/// inside every bucket. bucket(x) must be deterministic and < buckets; keep
/// `buckets` modest (the counting grid is blocks x buckets words). Round
/// loops use this form with arena/hoisted storage so a steady-state
/// partition allocates nothing.
template <typename T, typename BucketFn>
void parallel_bucket_partition_into(const T* in, std::size_t n, T* out,
                                    std::span<std::size_t> begin,
                                    std::size_t buckets, BucketFn&& bucket) {
  for (std::size_t k = 0; k <= buckets; ++k) begin[k] = 0;
  if (n == 0) return;
  if (n < kSerialGrain || buckets == 1) {
    for (std::size_t i = 0; i < n; ++i) ++begin[bucket(in[i]) + 1];
    for (std::size_t k = 0; k < buckets; ++k) begin[k + 1] += begin[k];
    ScratchBuffer<std::size_t> cur(buckets);
    std::copy(begin.data(), begin.data() + buckets, cur.data());
    for (std::size_t i = 0; i < n; ++i) out[cur[bucket(in[i])]++] = in[i];
    return;
  }
  const std::size_t blocks = scan_block_count(n);
  // counts[b * buckets + k]: elements of block b landing in bucket k.
  ScratchBuffer<std::size_t> counts(blocks * buckets, /*zeroed=*/true);
  parallel_for_blocks(blocks, [&](std::size_t b) {
    std::size_t* row = counts.data() + b * buckets;
    const std::size_t hi = detail::block_begin(n, blocks, b + 1);
    for (std::size_t i = detail::block_begin(n, blocks, b); i < hi; ++i)
      ++row[bucket(in[i])];
  });
  // Column-major exclusive scan: per-(block, bucket) write cursors, plus the
  // bucket boundaries. Earlier blocks write earlier inside a bucket, and a
  // block preserves input order, so the scatter is stable.
  std::size_t run = 0;
  for (std::size_t k = 0; k < buckets; ++k) {
    begin[k] = run;
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t c = counts[b * buckets + k];
      counts[b * buckets + k] = run;
      run += c;
    }
  }
  begin[buckets] = run;
  parallel_for_blocks(blocks, [&](std::size_t b) {
    std::size_t* row = counts.data() + b * buckets;
    const std::size_t hi = detail::block_begin(n, blocks, b + 1);
    for (std::size_t i = detail::block_begin(n, blocks, b); i < hi; ++i)
      out[row[bucket(in[i])]++] = in[i];
  });
}

/// Stable group-by for keys in [0, num_keys): fills `out` with the items of
/// `in` ordered by key, input-stable within each key, and returns the
/// num_keys + 1 segment offsets. Equivalent to a stable counting sort, but
/// two-level — a coarse stable partition over contiguous key ranges, then
/// an in-bucket counting sort — so the parallel counting grids stay small
/// even for vertex-scale key spaces. Output is canonical (sorted, stable),
/// hence identical for every thread count and for the serial path.
template <typename T, typename KeyFn>
void parallel_group_by_into(const std::vector<T>& in, std::vector<T>& out,
                            std::size_t num_keys, KeyFn&& key,
                            std::span<std::size_t> offsets) {
  const std::size_t n = in.size();
  out.resize(n);
  if (n == 0 || n < kSerialGrain) {
    for (std::size_t k = 0; k <= num_keys; ++k) offsets[k] = 0;
    if (n == 0) return;
    for (const T& x : in) ++offsets[key(x) + 1];
    for (std::size_t k = 0; k < num_keys; ++k) offsets[k + 1] += offsets[k];
    ScratchBuffer<std::size_t> cur(num_keys);
    std::copy(offsets.data(), offsets.data() + num_keys, cur.data());
    for (const T& x : in) out[cur[key(x)]++] = x;
    return;
  }
  // Coarse ranges of q consecutive keys per bucket.
  const std::size_t max_buckets = std::min<std::size_t>(num_keys, 512);
  const std::size_t q = (num_keys + max_buckets - 1) / max_buckets;
  const std::size_t buckets = (num_keys + q - 1) / q;
  ScratchBuffer<T> tmp(n);
  ScratchBuffer<std::size_t> bucket_begin(buckets + 1);
  parallel_bucket_partition_into(
      in.data(), n, tmp.data(), bucket_begin.span(), buckets,
      [&](const T& x) { return key(x) / q; });
  parallel_for_blocks(buckets, [&](std::size_t k) {
    const std::size_t lo_key = k * q;
    const std::size_t hi_key = std::min(num_keys, lo_key + q);
    const std::size_t lo = bucket_begin[k], hi = bucket_begin[k + 1];
    // Private count buffer, exclusive scan into the bucket's disjoint
    // offsets slice [lo_key, hi_key), stable scatter. Arena scratch: on the
    // dispatching thread this draws from the round arena, on worker threads
    // from the per-lane arena the runtime installs (util/arena.hpp) — no
    // heap in steady state on either.
    ScratchBuffer<std::size_t> cur(hi_key - lo_key, /*zeroed=*/true);
    for (std::size_t i = lo; i < hi; ++i) ++cur[key(tmp[i]) - lo_key];
    std::size_t acc = lo;
    for (std::size_t k2 = lo_key; k2 < hi_key; ++k2) {
      const std::size_t c = cur[k2 - lo_key];
      offsets[k2] = acc;
      cur[k2 - lo_key] = acc;
      acc += c;
    }
    for (std::size_t i = lo; i < hi; ++i)
      out[cur[key(tmp[i]) - lo_key]++] = tmp[i];
  });
  offsets[num_keys] = n;
}

}  // namespace logcc::util
