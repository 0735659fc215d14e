#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "util/thread_pool.hpp"

namespace logcc::util {

namespace {

int env_threads() {
  if (const char* env = std::getenv("OMP_NUM_THREADS")) {
    const int v = std::atoi(env);
    if (v >= 1) return v;
  }
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

ParallelBackend default_backend() {
  if (const char* env = std::getenv("LOGCC_BACKEND")) {
    if (std::strcmp(env, "serial") == 0) return ParallelBackend::kSerial;
    if (std::strcmp(env, "pool") != 0) {
      // A typo'd backend must not silently measure the wrong thing.
      std::fprintf(stderr,
                   "logcc: unknown LOGCC_BACKEND '%s' "
                   "(want pool|serial); using pool\n",
                   env);
    }
  }
  return ParallelBackend::kPool;
}

std::atomic<ParallelBackend> g_backend{default_backend()};
// Requested lane count. Kept here (not only in the pool) so backend switches
// preserve the requested width.
std::atomic<int> g_threads{env_threads()};

constexpr std::size_t kDefaultGrain = 1024;
constexpr std::size_t kMinGrain = 256;
constexpr std::size_t kMaxGrain = 16384;

/// Measures the pool's empty-dispatch latency and derives a grain such that
/// one chunk's work (assuming on the order of a nanosecond per index)
/// amortises the dispatch. Purely a scheduling knob: results never depend
/// on it; set_parallel_grain pins it instead.
std::size_t calibrate_grain() {
  if (g_backend.load(std::memory_order_relaxed) != ParallelBackend::kPool ||
      g_threads.load(std::memory_order_relaxed) <= 1)
    return kDefaultGrain;
  ThreadPool& pool = ThreadPool::instance();
  pool.set_lanes(g_threads.load(std::memory_order_relaxed));
  auto noop = [](void*, std::size_t, std::size_t) {};
  // Warm the pool (starts workers), then time a handful of empty
  // dispatches.
  pool.run(0, 64, 1, nullptr, noop);
  constexpr int kReps = 32;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kReps; ++i) pool.run(0, 64, 1, nullptr, noop);
  const auto t1 = std::chrono::steady_clock::now();
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count() /
      kReps;
  // Chunk work should dwarf the per-dispatch cost; at ~1ns/index, `ns`
  // indices per chunk puts the whole-dispatch overhead near 1/lanes of one
  // chunk.
  return std::clamp<std::size_t>(static_cast<std::size_t>(ns), kMinGrain,
                                 kMaxGrain);
}

std::atomic<std::size_t> g_grain{0};  // 0 = not yet calibrated

}  // namespace

ParallelBackend parallel_backend() {
  return g_backend.load(std::memory_order_relaxed);
}

void set_parallel_backend(ParallelBackend backend) {
  g_backend.store(backend, std::memory_order_relaxed);
}

const char* parallel_backend_name() {
  switch (parallel_backend()) {
    case ParallelBackend::kSerial: return "serial";
    case ParallelBackend::kPool: return "pool";
  }
  return "?";
}

int hardware_parallelism() {
  switch (parallel_backend()) {
    case ParallelBackend::kSerial:
      return 1;
    case ParallelBackend::kPool:
      return g_threads.load(std::memory_order_relaxed);
  }
  return 1;
}

void set_parallelism(int threads) {
  if (threads < 1) return;
  g_threads.store(threads, std::memory_order_relaxed);
  ThreadPool::instance().set_lanes(threads);
}

std::size_t parallel_grain() {
  std::size_t g = g_grain.load(std::memory_order_relaxed);
  if (g == 0) {
    g = calibrate_grain();
    g_grain.store(g, std::memory_order_relaxed);
  }
  return g;
}

void set_parallel_grain(std::size_t grain) {
  g_grain.store(std::max<std::size_t>(1, grain), std::memory_order_relaxed);
}

namespace detail {

void parallel_run_impl(std::size_t begin, std::size_t end, std::size_t grain,
                       void* ctx,
                       void (*chunk)(void*, std::size_t, std::size_t)) {
  if (end <= begin) return;
  switch (parallel_backend()) {
    case ParallelBackend::kSerial:
      chunk(ctx, begin, end);
      return;
    case ParallelBackend::kPool: {
      ThreadPool& pool = ThreadPool::instance();
      pool.set_lanes(g_threads.load(std::memory_order_relaxed));
      pool.run(begin, end, grain, ctx, chunk);
      return;
    }
  }
}

}  // namespace detail
}  // namespace logcc::util
