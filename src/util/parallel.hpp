// Data-parallel loop primitive over interchangeable backends.
//
// One PRAM step over k processors maps to `parallel_for(0, k, fn)`. The
// dispatch goes through one of two backends of the same executor API:
//
//   kPool   — the persistent parking worker pool (util/thread_pool.hpp).
//             The default: no per-dispatch thread creation or fork/join,
//             chunked work distribution with a calibrated grain, adaptive
//             spin before parking. Fully instrumented under TSan (plain
//             std::thread/std::mutex synchronization), so the TSan CI job
//             race-checks exactly this library's kernels.
//   kSerial — inline serial loop (also what sub-grain ranges always get).
//
// Selection: LOGCC_BACKEND=pool|serial in the environment, or
// set_parallel_backend() from code.
//
// The backend choice NEVER affects results. Algorithms never depend on the
// execution order or placement inside a step: all cross-processor
// communication goes through buffered writes resolved between steps (see
// pram/machine.hpp) or through commutative atomics-free patterns
// (idempotent writes / fetch-min resolution), and the blocked primitives in
// scan.hpp fix their block structure as a function of input size alone.
// Every invariance suite runs bit-identically under both backends.
#pragma once

#include <cstddef>
#include <cstdint>

namespace logcc::util {

enum class ParallelBackend {
  kSerial,
  kPool,
};

/// The active backend.
ParallelBackend parallel_backend();

/// Switches the dispatch backend. Benches and tests use this to compare
/// backends; the LOGCC_BACKEND environment variable sets the process
/// default.
void set_parallel_backend(ParallelBackend backend);

/// "pool" | "serial" — for bench.json provenance records.
const char* parallel_backend_name();

/// Number of worker threads parallel_for may use under the active backend
/// (1 for kSerial).
int hardware_parallelism();

/// Caps the number of worker threads (no-op for kSerial). Benches and the
/// thread-invariance tests use this to pin the thread count from code; the
/// initial value honours OMP_NUM_THREADS (the historical name, kept because
/// tests and CI sweep on it).
void set_parallelism(int threads);

/// Grain below which parallel_for always runs serially.
inline constexpr std::size_t kSerialGrain = 4096;

/// Minimum indices per chunk handed to a lane in one claim. Calibrated
/// once, lazily, from the measured dispatch latency, clamped to
/// [256, 16384] (see parallel.cpp); set_parallel_grain pins it. Affects
/// scheduling only, never results.
std::size_t parallel_grain();
void set_parallel_grain(std::size_t grain);

namespace detail {
/// Dispatches chunk(ctx, lo, hi) covering [begin, end) on the active
/// backend; chunks hold at least `grain` indices.
void parallel_run_impl(std::size_t begin, std::size_t end, std::size_t grain,
                       void* ctx,
                       void (*chunk)(void*, std::size_t, std::size_t));
}  // namespace detail

template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, Fn&& fn) {
  if (end <= begin) return;
  if (end - begin < kSerialGrain || hardware_parallelism() == 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  detail::parallel_run_impl(begin, end, parallel_grain(), &fn,
                            [](void* ctx, std::size_t lo, std::size_t hi) {
                              Fn& f = *static_cast<Fn*>(ctx);
                              for (std::size_t i = lo; i < hi; ++i) f(i);
                            });
}

/// Dispatches `blocks` coarse work items, each already covering at least a
/// grain of underlying work, so — unlike parallel_for — there is no
/// element-count threshold: any count above 1 work-shares (with chunk size
/// 1: each block is claimed individually). The blocked primitives in
/// scan.hpp dispatch through this (their block counts are far below
/// kSerialGrain by design).
template <typename Fn>
void parallel_for_blocks(std::size_t blocks, Fn&& fn) {
  if (blocks <= 1 || hardware_parallelism() == 1) {
    for (std::size_t b = 0; b < blocks; ++b) fn(b);
    return;
  }
  detail::parallel_run_impl(0, blocks, 1, &fn,
                            [](void* ctx, std::size_t lo, std::size_t hi) {
                              Fn& f = *static_cast<Fn*>(ctx);
                              for (std::size_t b = lo; b < hi; ++b) f(b);
                            });
}

}  // namespace logcc::util
