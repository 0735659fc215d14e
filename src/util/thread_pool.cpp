#include "util/thread_pool.hpp"

#include <algorithm>
#include "util/arena.hpp"
#include "util/failpoint.hpp"
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

namespace logcc::util {

namespace {

// Lane-claim loop spin budget before parking on the condition variable.
// Long enough that back-to-back round dispatches (the hot case) never pay a
// futex wake, short enough that an idle pool costs nothing measurable.
constexpr int kSpinIterations = 1 << 14;

// Oversubscribed lanes (more lanes than hardware threads) must not spin:
// a spinning lane burns exactly the CPU the working lanes need. Parking
// immediately (and yielding while draining) is strictly better there.
int spin_budget(int lanes) {
  static const int hw =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  return lanes <= hw ? kSpinIterations : 0;
}

thread_local bool tl_in_region = false;

#if defined(__cpp_lib_hardware_interference_size)
constexpr std::size_t kCacheLine = std::hardware_destructive_interference_size;
#else
constexpr std::size_t kCacheLine = 64;
#endif

/// One lane's contiguous chunk segment. Padded: the claim counters are the
/// only cross-thread contended words in a dispatch.
struct alignas(kCacheLine) LaneSegment {
  std::atomic<std::size_t> next{0};  // next chunk index to claim
  std::size_t end = 0;               // one past the segment's last chunk
};

}  // namespace

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable cv_work;  // workers park here between dispatches
  std::condition_variable cv_done;  // caller parks here while lanes drain
  std::vector<std::thread> workers;
  // set_lanes() value; workers restart to match. Atomic: nested dispatches
  // running on worker threads store it concurrently with the caller.
  std::atomic<int> target_lanes{0};
  bool stopping = false;
  std::atomic<std::uint64_t> starts{0};

  // The in-flight dispatch. Plain fields are published by the epoch bump
  // (written under mu before the release store, read after an acquire load).
  std::atomic<std::uint64_t> epoch{0};
  std::size_t job_begin = 0;
  std::size_t job_end = 0;
  std::size_t job_chunk = 1;    // indices per chunk
  std::size_t job_chunks = 0;   // total chunk count
  void* job_ctx = nullptr;
  ChunkFn job_fn = nullptr;
  std::vector<LaneSegment> segments;  // sized to lanes at start, reused
  std::atomic<int> lanes_left{0};     // worker lanes still draining
  std::atomic<bool> job_failed{false};
  std::exception_ptr job_error;  // guarded by mu
  // Serializes dispatches: a second thread calling run() concurrently
  // falls back to an inline serial loop instead of queueing.
  std::mutex dispatch_mu;

  // `seen` starts at the epoch current when the worker was spawned — a
  // fresh worker (after a resize restart) must NOT mistake an already-
  // consumed epoch for new work and run on stale segments.
  void worker_main(std::size_t lane, std::uint64_t seen) {
    prewarm_worker_arena();
    for (;;) {
      // Spin briefly for the next epoch, then park.
      bool got = false;
      const int spin =
          spin_budget(target_lanes.load(std::memory_order_relaxed));
      for (int i = 0; i < spin; ++i) {
        if (epoch.load(std::memory_order_acquire) != seen) {
          got = true;
          break;
        }
      }
      if (!got) {
        std::unique_lock<std::mutex> lock(mu);
        cv_work.wait(lock, [&] {
          return stopping || epoch.load(std::memory_order_relaxed) != seen;
        });
      }
      if (stopping) return;
      seen = epoch.load(std::memory_order_acquire);
      tl_in_region = true;
      {
        // Lane-local scratch arena for the kernels this dispatch runs:
        // worker-side ScratchBuffers draw from memory this worker
        // first-touched and retains across dispatches (zero heap in steady
        // state). The scope resets the arena on exit — all scratch is dead
        // by LIFO once work() returns.
        WorkerArenaScope arena;
        work(lane);
      }
      tl_in_region = false;
      if (lanes_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(mu);
        cv_done.notify_one();
      }
    }
  }

  void run_chunk(std::size_t c) noexcept {
    const std::size_t lo = job_begin + c * job_chunk;
    const std::size_t hi = std::min(job_end, lo + job_chunk);
    try {
      job_fn(job_ctx, lo, hi);
    } catch (...) {
      bool expected = false;
      if (job_failed.compare_exchange_strong(expected, true)) {
        std::lock_guard<std::mutex> lock(mu);
        job_error = std::current_exception();
      }
    }
  }

  /// Drains the lane's own segment, then steals chunks from later lanes
  /// (wrapping), so skewed chunks still balance across lanes.
  void work(std::size_t lane) {
    const std::size_t nlanes = segments.size();
    for (std::size_t probe = 0; probe < nlanes; ++probe) {
      LaneSegment& seg = segments[(lane + probe) % nlanes];
      for (;;) {
        if (job_failed.load(std::memory_order_relaxed)) return;
        const std::size_t c = seg.next.fetch_add(1, std::memory_order_relaxed);
        if (c >= seg.end) break;
        run_chunk(c);
      }
    }
  }

  /// (Re)starts the worker set to `target_lanes - 1` threads. Called with
  /// no dispatch in flight.
  void ensure_workers() {
    const int lanes = target_lanes.load(std::memory_order_relaxed);
    const std::size_t want =
        lanes > 1 ? static_cast<std::size_t>(lanes - 1) : 0;
    if (workers.size() == want) return;
    stop_workers();
    if (want == 0) return;
    {
      std::lock_guard<std::mutex> lock(mu);
      stopping = false;
      starts.fetch_add(1, std::memory_order_relaxed);
    }
    segments = std::vector<LaneSegment>(want + 1);
    workers.reserve(want);
    const std::uint64_t seen = epoch.load(std::memory_order_relaxed);
    for (std::size_t w = 0; w < want; ++w)
      workers.emplace_back([this, w, seen] { worker_main(w + 1, seen); });
  }

  void stop_workers() {
    if (workers.empty()) return;
    {
      std::lock_guard<std::mutex> lock(mu);
      stopping = true;
    }
    cv_work.notify_all();
    for (auto& t : workers) t.join();
    workers.clear();
  }
};

ThreadPool& ThreadPool::instance() {
  // Magic-static: construction (and Impl creation) is thread-safe even when
  // the first dispatches race from unrelated threads.
  static ThreadPool pool;
  return pool;
}

ThreadPool::ThreadPool() : impl_(new Impl()) {
  // Hardware default only: the dispatch layer (util/parallel.cpp) owns the
  // requested width — including the OMP_NUM_THREADS pinning — and calls
  // set_lanes() before every run().
  impl_->target_lanes.store(
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())),
      std::memory_order_relaxed);
}

ThreadPool::Impl& ThreadPool::impl() { return *impl_; }

ThreadPool::~ThreadPool() {
  if (impl_) {
    impl_->stop_workers();
    delete impl_;
  }
}

void ThreadPool::set_lanes(int lanes) {
  if (lanes >= 1)
    impl().target_lanes.store(lanes, std::memory_order_relaxed);
}

int ThreadPool::lanes() const {
  return const_cast<ThreadPool*>(this)->impl().target_lanes.load(
      std::memory_order_relaxed);
}

bool ThreadPool::in_parallel_region() { return tl_in_region; }

std::uint64_t ThreadPool::starts() const {
  return const_cast<ThreadPool*>(this)->impl().starts.load(
      std::memory_order_relaxed);
}

void ThreadPool::shutdown() {
  if (impl_) impl_->stop_workers();
}

void ThreadPool::run(std::size_t begin, std::size_t end, std::size_t grain,
                     void* ctx, ChunkFn chunk) {
  if (end <= begin) return;
  // Jitter/crash site for the fault suite: dispatch has no error path, so
  // the useful actions are delay (scheduling skew that must not change any
  // deterministic result) and crash (die inside a parallel region). The
  // disarmed cost is the one relaxed load the serving bench pins.
  (void)LOGCC_FAILPOINT("thread_pool_dispatch");
  Impl& im = impl();
  // Reentrant (a body dispatching again) or contended (another thread is
  // mid-dispatch): run inline. Serial execution is always a correct
  // schedule, and never deadlocks the lanes.
  if (tl_in_region || !im.dispatch_mu.try_lock()) {
    chunk(ctx, begin, end);
    return;
  }
  std::lock_guard<std::mutex> dispatch(im.dispatch_mu, std::adopt_lock);

  im.ensure_workers();
  const std::size_t n = end - begin;
  const std::size_t g = std::max<std::size_t>(1, grain);
  const std::size_t chunks = (n + g - 1) / g;
  if (im.workers.empty() || chunks <= 1) {
    // Single-chunk (or single-lane) dispatch runs inline — still "inside a
    // parallel region" as far as bodies can observe.
    tl_in_region = true;
    try {
      chunk(ctx, begin, end);
    } catch (...) {
      tl_in_region = false;
      throw;
    }
    tl_in_region = false;
    return;
  }

  const std::size_t nlanes = im.workers.size() + 1;
  im.job_begin = begin;
  im.job_end = end;
  im.job_chunk = g;
  im.job_chunks = chunks;
  im.job_ctx = ctx;
  im.job_fn = chunk;
  im.job_failed.store(false, std::memory_order_relaxed);
  // Contiguous chunk segments per lane (lane k's segment is the same for
  // the same (n, grain, lanes) every dispatch — the first-touch property).
  for (std::size_t k = 0; k < nlanes; ++k) {
    const std::size_t lo = chunks / nlanes * k + std::min(k, chunks % nlanes);
    const std::size_t hi =
        chunks / nlanes * (k + 1) + std::min(k + 1, chunks % nlanes);
    im.segments[k].next.store(lo, std::memory_order_relaxed);
    im.segments[k].end = hi;
  }
  im.lanes_left.store(static_cast<int>(im.workers.size()),
                      std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(im.mu);
    im.epoch.fetch_add(1, std::memory_order_release);
  }
  im.cv_work.notify_all();

  // The caller is lane 0.
  tl_in_region = true;
  im.work(0);
  tl_in_region = false;

  // Wait for the worker lanes: spin (steady-state dispatches finish in the
  // spin window), then park. Oversubscribed: yield instead of spinning so
  // the still-working lanes get the CPU.
  bool drained = false;
  const int spin = spin_budget(static_cast<int>(nlanes));
  for (int i = 0; i < (spin ? spin : 64); ++i) {
    if (im.lanes_left.load(std::memory_order_acquire) == 0) {
      drained = true;
      break;
    }
    if (!spin) std::this_thread::yield();
  }
  if (!drained) {
    std::unique_lock<std::mutex> lock(im.mu);
    im.cv_done.wait(lock, [&] {
      return im.lanes_left.load(std::memory_order_acquire) == 0;
    });
  }

  if (im.job_failed.load(std::memory_order_acquire)) {
    std::exception_ptr err;
    {
      std::lock_guard<std::mutex> lock(im.mu);
      err = im.job_error;
      im.job_error = nullptr;
    }
    if (err) std::rethrow_exception(err);
  }
}

}  // namespace logcc::util
