// Stable LSD radix sort on 64-bit keys — the in-bucket sort behind the
// parallel dedup paths (core/building_blocks.cpp, baselines/lt_family.cpp).
//
// The dedup kernels partition records into buckets (by mixed high bits of
// the smaller endpoint) and sort each bucket independently on a worker
// lane. Those per-bucket sorts were comparison sorts; for the packed
// (u << 32 | v) keys the buckets actually hold, a counting radix does the
// same reordering in a handful of streaming passes:
//
//   - ONE counting pass builds all eight digit histograms at once;
//   - digit passes whose histogram is a single bin (all keys share that
//     byte — the common case: keys span ~2 log2(n) bits, so most of the
//     eight bytes are constant) are skipped outright;
//   - the remaining passes scatter between the caller's buffer and a
//     same-size scratch buffer (ScratchBuffer: round-arena backed on the
//     dispatching thread, lane-arena backed on pool workers — no heap
//     in steady state either way).
//
// The sort is deterministic and stable by construction: output depends
// only on the input sequence, never on thread count or timing. Callers
// below kRadixSortCutoff should keep using std::sort — the histogram setup
// does not amortise on tiny buckets. Both paths must (and do, for the
// dedup callers: they canonicalise equal-key runs afterwards) produce the
// same final contents, so the per-bucket size cutoff — a pure function of
// the input — cannot break thread-count invariance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "util/arena.hpp"

namespace logcc::util {

/// Below this many records a comparison sort wins; callers use it to pick
/// the path per bucket (a pure function of bucket size — deterministic).
inline constexpr std::size_t kRadixSortCutoff = 256;

/// Sorts data[0..n) by ascending key(record) (a std::uint64_t). Stable.
/// Scratch comes from the active arena (heap fallback off-arena).
template <typename T, typename KeyFn>
void radix_sort_key64(T* data, std::size_t n, KeyFn&& key) {
  if (n < 2) return;
  constexpr int kPasses = 8;  // 8-bit digits over a 64-bit key
  std::size_t hist[kPasses][256] = {};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = key(data[i]);
    for (int d = 0; d < kPasses; ++d) ++hist[d][(k >> (8 * d)) & 0xff];
  }
  ScratchBuffer<T> tmp(n);
  T* src = data;
  T* dst = tmp.data();
  for (int d = 0; d < kPasses; ++d) {
    // Constant digit (all keys share this byte): nothing to move.
    if (hist[d][(key(src[0]) >> (8 * d)) & 0xff] == n) continue;
    std::size_t cur[256];
    std::size_t run = 0;
    for (int b = 0; b < 256; ++b) {
      cur[b] = run;
      run += hist[d][b];
    }
    for (std::size_t i = 0; i < n; ++i)
      dst[cur[(key(src[i]) >> (8 * d)) & 0xff]++] = src[i];
    T* t = src;
    src = dst;
    dst = t;
  }
  if (src != data) std::memcpy(data, src, n * sizeof(T));
}

}  // namespace logcc::util
