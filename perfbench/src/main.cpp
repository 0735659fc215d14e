// perfbench: the repository's end-to-end benchmark program (README.md in this
// directory documents the workloads, metrics and noise controls).
//
//   perfbench --workload grid|rmat|serve --seed N --seconds S --trace 0|1
//             --work-dir DIR
//
// One process generates the workload from the seed, sets it up three times
// (reporting the median), then times the batch path
// (connected_components(faster-cc) at 2 lanes and at 1 lane) and the
// serving path (a durable ConnectivityEngine with a live reader, then
// recovery). Every answer is checked. --trace 1 replaces the end-to-end
// pass with the per-layer pass. The last stdout line is the JSON result.
#include <malloc.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "batch.hpp"
#include "common.hpp"
#include "serve.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

namespace {

using namespace perfbench;
namespace util = logcc::util;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir;  // generated inputs and durable dirs; removed at exit
};

struct Workload {
  const char* name;
  const char* family;  // generator family of the graph and of the stream
  std::uint64_t n;
  /// peak_rss_mib is the serving window's instead of the whole process's,
  /// whose peak faster-cc sets.
  bool serving_peak;
};

// Why each exists (README.md has the long form): grid is the log d regime
// with one giant component; rmat has skewed degrees, tiny diameter and many
// components; serve is cc_serve's default gnm2 stream family.
constexpr Workload kWorkloads[] = {
    {"grid", "grid", 1'000'000, false},
    {"rmat", "rmat", 500'000, false},
    {"serve", "gnm2", 600'000, true},
};

constexpr int kSetups = 3;
/// Share of --seconds the labels phase repeats 2-lane/1-lane pairs for
/// (at least kMinPairs); the serving window is sized by batch count
/// instead, since its p99 needs them all.
constexpr double kLabelsShare = 0.35;
constexpr int kMinPairs = 3;
constexpr int kTracedReps = 5;

bool parse(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      args->workload = val;
    } else if (key == "--seed") {
      args->seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      args->trace = std::strcmp(val, "1") == 0;
    } else if (key == "--work-dir") {
      args->work_dir = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->work_dir.empty() &&
         args->seconds > 0;
}

/// Keeps both lanes busy for `seconds`, so the vCPUs are awake before the
/// first measured work (an idle guest's first second runs measurably
/// slower).
void spin_lanes(double seconds) {
  const double deadline = now_s() + seconds;
  util::parallel_for_blocks(kLanes, [&](std::size_t) {
    while (now_s() < deadline) {
    }
  });
}

/// Wall seconds and steal jiffies of each phase of the run, and the peak
/// RSS at its end: a run whose vCPUs the host preempted shows here, so a
/// noisy-neighbour outlier can be told from a regression, and the phase
/// that set the peak can be read off.
class Phases {
 public:
  void end(const char* name) {
    const double wall = now_s();
    const std::uint64_t steal = steal_jiffies();
    items_.push_back({name, wall - wall_, steal - steal_, peak_rss_mib()});
    wall_ = wall;
    steal_ = steal;
  }
  void print() const {
    std::printf("provenance: phase wall_s/steal_jiffies/peak_rss_mib:");
    for (const Item& p : items_)
      std::printf(" %s=%.1f/%" PRIu64 "/%.1f", p.name, p.wall_s, p.steal,
                  p.peak_rss_mib);
    std::printf("\n");
  }

 private:
  struct Item {
    const char* name;
    double wall_s;
    std::uint64_t steal;
    double peak_rss_mib;
  };
  double wall_ = now_s();
  std::uint64_t steal_ = steal_jiffies();
  std::vector<Item> items_;
};

std::vector<double> cpu_of(const std::vector<Elapsed>& xs) {
  std::vector<double> out;
  for (const Elapsed& e : xs) out.push_back(e.cpu);
  return out;
}

std::vector<double> wall_of(const std::vector<Elapsed>& xs) {
  std::vector<double> out;
  for (const Elapsed& e : xs) out.push_back(e.wall);
  return out;
}

std::vector<Elapsed> times_at(const std::vector<Rep>& reps, int lanes) {
  std::vector<Elapsed> out;
  for (const Rep& r : reps)
    if (r.lanes == lanes) out.push_back(r.time);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload grid|rmat|serve --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR\n");
    return 2;
  }
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads)
    if (args.workload == w.name) wl = &w;
  if (wl == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (!make_dirs(args.work_dir)) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 args.work_dir.c_str());
    return 2;
  }

  util::set_parallel_backend(util::ParallelBackend::kPool);
  util::set_parallelism(kLanes);
  const std::uint64_t graph_seed = util::mix64(args.seed, 0x6EA);
  const std::uint64_t engine_seed = util::mix64(args.seed, 0x5E4E);
  const std::string csr_path = args.work_dir + "/graph.csr";
  const std::string durable_dir = args.work_dir + "/durable";

  std::printf("perfbench: workload=%s graph=%s:%" PRIu64 " seed=%" PRIu64
              " seconds=%g trace=%d\n",
              wl->name, wl->family, wl->n, args.seed, args.seconds,
              args.trace ? 1 : 0);
  std::printf("provenance: cpu=\"%s\" nproc=%u lanes=%d backend=%s grain=%zu\n",
              cpu_model().c_str(), std::thread::hardware_concurrency(), kLanes,
              util::parallel_backend_name(), util::parallel_grain());

  Phases phases;
  spin_lanes(0.5);

  ServePlan plan;
  std::vector<logcc::graph::Edge> stream;
  plan.n = generate(wl->family, wl->n, graph_seed, csr_path,
                    plan.total_edges(), &stream);
  if (plan.n == 0 || stream.size() < plan.total_edges()) {
    std::fprintf(stderr, "perfbench: generation failed\n");
    return 1;
  }
  std::printf("provenance: work_dir_fs=%s wal_fsync=batch checkpoint_every=%"
              PRIu64 " batch_edges=%" PRIu64 " warmup_batches=%" PRIu64
              " timed_batches=%" PRIu64 "\n",
              filesystem_of(args.work_dir).c_str(), plan.checkpoint_every,
              plan.batch_edges, plan.warmup_batches, plan.timed_batches);
  std::printf("provenance: seeds graph=%" PRIu64 " engine=%" PRIu64 "\n",
              graph_seed, engine_seed);
  phases.end("generate");

  // ---- set-up, repeated; the last one's state carries into the timed run.
  Tally tally;
  Metrics metrics;
  BatchInput input;
  std::unique_ptr<logcc::serve::ConnectivityEngine> engine;
  std::vector<Elapsed> setups;
  std::vector<double> load_s;
  for (int r = 0; r < kSetups; ++r) {
    engine.reset();
    input = BatchInput{};
    remove_tree(durable_dir);
    const std::uint64_t warm_seed = rep_seed(args.seed, 1000 + r);
    const Instant t0 = instant();
    double load = 0.0;
    if (!setup_batch(csr_path, warm_seed, tally, &input, &load) ||
        !setup_serve(plan, stream, durable_dir, engine_seed, tally, &engine))
      return 1;
    setups.push_back(since(t0));
    load_s.push_back(load);
  }
  std::printf("graph: n=%" PRIu64 " edges=%" PRIu64 " components=%" PRIu64
              "\n",
              input.reference.num_vertices(),
              input.handle.input().num_edges(),
              input.reference.num_components());

  phases.end("setup");
  SpanLog log;
  if (!args.trace) {
    const std::vector<Rep> reps =
        run_labels(input, args.seed, kLabelsShare * args.seconds, kMinPairs,
                   tally);
    phases.end("labels");
    for (const Rep& r : reps)
      std::printf("rep seed=%" PRIu64 " lanes=%d cpu_s=%.6f wall_s=%.6f "
                  "rounds=%" PRIu64 " phases=%" PRIu64
                  " prepare_phases=%" PRIu64 "\n",
                  r.seed, r.lanes, r.time.cpu, r.time.wall, r.stats.rounds,
                  r.stats.phases, r.stats.prepare_phases);
    if (wl->serving_peak) {
      // Restart the peak on a trimmed heap, so that the window's peak is
      // the serving path's own.
      malloc_trim(0);
      tally.check(reset_peak_rss(), "reset of the peak RSS");
    }
    const ServeResult sr = run_serve(plan, stream, durable_dir, engine_seed,
                                     std::move(engine), nullptr, tally,
                                     nullptr);
    phases.end("serve");
    std::printf("serving: components=%" PRIu64 " merge_rounds=%" PRIu64
                " merges=%" PRIu64 " replayed_records=%" PRIu64 "\n",
                sr.components, sr.merge_rounds, sr.merges,
                sr.replayed_records);
    // Times are the driving thread's CPU clock (README.md, "Clocks"); the
    // wall-clock companions are printed for reference.
    const auto two = times_at(reps, kLanes);
    const auto one = times_at(reps, 1);
    const double queries = static_cast<double>(sr.queries);
    const double edges = static_cast<double>(sr.edges);
    metrics.add("setup_s", util::percentile(cpu_of(setups), 50), "s",
                setups.size());
    metrics.add("labels_s", util::percentile(cpu_of(two), 50), "s",
                two.size());
    metrics.add("labels_1lane_s", util::percentile(cpu_of(one), 50), "s",
                one.size());
    metrics.add("ingest_eps", edges / sr.writer.cpu, "edges/s",
                sr.apply_ms.size());
    metrics.add("apply_p50_ms", util::percentile(sr.apply_ms, 50), "ms",
                sr.apply_ms.size());
    metrics.add("apply_p99_ms", util::percentile(sr.apply_ms, 99), "ms",
                sr.apply_ms.size());
    metrics.add("query_mqps", queries / sr.reader.cpu / 1e6, "1e6/s",
                sr.queries);
    metrics.add("recover_s", util::percentile(cpu_of(sr.recover), 50), "s",
                sr.recover.size());
    std::printf("wall: setup_s=%.6f labels_s=%.6f labels_1lane_s=%.6f "
                "ingest_eps=%.1f apply_p50_ms=%.4f apply_p99_ms=%.4f "
                "query_mqps=%.4f recover_s=%.6f\n",
                util::percentile(wall_of(setups), 50),
                util::percentile(wall_of(two), 50),
                util::percentile(wall_of(one), 50), edges / sr.writer.wall,
                util::percentile(sr.apply_wall_ms, 50),
                util::percentile(sr.apply_wall_ms, 99),
                queries / sr.reader.wall / 1e6,
                util::percentile(wall_of(sr.recover), 50));
    metrics.add("peak_rss_mib",
                wl->serving_peak ? sr.window_peak_rss_mib : peak_rss_mib(),
                "MiB", 1);
  } else {
    metrics.add("binary_io.load_s", util::percentile(load_s, 50), "s",
                load_s.size());
    metrics.add("setup_wall_s", util::percentile(wall_of(setups), 50), "s",
                setups.size());
    run_traced_labels(input, args.seed, kTracedReps, log, tally, metrics);
    phases.end("labels");
    run_serve(plan, stream, durable_dir, engine_seed, std::move(engine), &log,
              tally, &metrics);
    phases.end("serve");
    const std::string trace_path = args.work_dir + ".trace.json";
    if (log.write_chrome_trace(trace_path))
      std::printf("trace: %zu spans written to %s\n", log.spans().size(),
                  trace_path.c_str());
  }

  phases.print();
  for (const Metric& m : metrics.items())
    std::printf("metric %-38s %14.6f %-8s samples=%" PRIu64 "\n",
                m.name.c_str(), m.value, m.unit.c_str(), m.samples);
  input = BatchInput{};
  remove_tree(args.work_dir);
  const bool correct = tally.failed == 0;
  print_json(correct, tally, metrics);
  return correct ? 0 : 1;
}
