// Shared vocabulary of the perfbench program: the two clocks, the operation
// tally, the metric sink printed as the final JSON line, and the in-memory
// span log of the traced pass.
#pragma once

#include <chrono>
#include <ctime>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace perfbench {

/// Lanes every timed operation runs on unless it says otherwise. Each
/// bulk-synchronous round waits for its slowest lane, and a lane on a vCPU
/// the host steals stalls the round; two lanes on a four-vCPU guest leave
/// room for the reader thread and the host (README.md, "Noise").
inline constexpr int kLanes = 2;

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread. On a paravirtualized guest it excludes
/// time the hypervisor stole from the thread's vCPU, and like any CPU clock
/// it excludes time the thread slept: blocked in I/O, or parked while
/// waiting for a lane whose vCPU was stolen or halted.
inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One reading of both clocks, and the time between two readings.
struct Instant {
  double wall = 0.0;
  double cpu = 0.0;
};
struct Elapsed {
  double wall = 0.0;
  double cpu = 0.0;
};
inline Instant instant() { return {now_s(), thread_cpu_s()}; }
inline Elapsed since(const Instant& start) {
  const Instant end = instant();
  return {end.wall - start.wall, end.cpu - start.cpu};
}

/// Every checked operation counts once; a failed check prints why.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void check(bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: FAILED %s\n", what);
    }
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

/// The metrics one run reports, in print order.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples) {
    items_.push_back({name, value, unit, samples});
  }
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// In-memory span and count log of the traced pass. A span records its
/// name, start, end (both clocks of the recording thread) and the span open
/// around it; a count is recorded at the boundary of the span it belongs
/// to. Nothing is written until the run ends (write_chrome_trace).
class SpanLog {
 public:
  struct Span {
    const char* name;
    Instant start;
    Instant end;
    int parent = -1;
  };
  struct Count {
    const char* name;
    double value = 0.0;
    int span = -1;
  };

  int open(const char* name) {
    spans_.push_back({name, instant(), {}, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    spans_[id].end = instant();
    current_ = spans_[id].parent;
  }
  /// Records an already-timed span (side calls, the reader's blocks).
  void record(const char* name, const Instant& start, const Instant& end) {
    spans_.push_back({name, start, end, current_});
  }
  void count(const char* name, double value, int span) {
    counts_.push_back({name, value, span});
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// CPU-clock duration of span `id`, and the same minus the time its
  /// direct children cover (its self time).
  double duration(int id) const;
  double self_time(int id) const;
  /// CPU-clock (or wall-clock) durations of every span called `name`.
  std::vector<double> durations(const char* name) const;
  std::vector<double> wall_durations(const char* name) const;
  /// Values of every count called `name`.
  std::vector<double> values(const char* name) const;

  bool write_chrome_trace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<Count> counts_;
  int current_ = -1;
};

/// RAII span on a log; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), id_(log ? log->open(name) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// Jiffies the hypervisor has stolen from the guest's vCPUs (/proc/stat "cpu"
/// line, 8th field); 0 where unavailable.
std::uint64_t steal_jiffies();
std::string cpu_model();
/// Filesystem type of `path` ("ext4", "tmpfs", ...).
std::string filesystem_of(const std::string& path);
/// The process's peak RSS (VmHWM, the figure getrusage's ru_maxrss
/// reports) since it started or since the last reset_peak_rss().
double peak_rss_mib();
/// Restarts the peak at the current RSS (Linux clear_refs "5"); false when
/// the kernel refuses.
bool reset_peak_rss();
bool remove_tree(const std::string& path);
bool make_dirs(const std::string& path);

/// Writes the graph `family:n` under `seed` as a LOGCCSR1 file at
/// `csr_path` and keeps its first `keep_edges` edges, in generator order,
/// in `kept`. Returns the vertex count (0 on failure).
std::uint64_t generate(const std::string& family, std::uint64_t n,
                       std::uint64_t seed, const std::string& csr_path,
                       std::uint64_t keep_edges,
                       std::vector<logcc::graph::Edge>* kept);

void print_json(bool correct, const Tally& tally, const Metrics& metrics);

}  // namespace perfbench
