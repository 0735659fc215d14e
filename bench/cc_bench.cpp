// cc_bench — the unified benchmark driver and the canonical source of the
// repo's perf trajectory (`bench.json`, schema "logcc-bench-v1").
//
//   $ ./cc_bench --generate=grid:5300000 --binary-cache=grid.bin
//                --algorithms=vanilla,theorem1,faster-cc,sv
//                --threads=1,2,8 --json=bench.json
//   (one command line, wrapped here)
//
// One invocation: resolve a dataset (text/binary file, or a generator family
// streamed to a binary CSR file and mmap-loaded back — the paper-scale
// path), run every requested algorithm under every thread count, and emit
// one JSON document with per-run timings, round counts, component counts,
// and a determinism verdict (identical components and label hash across
// thread counts — the thread-count-invariance contract, enforced here on
// real workloads, not just unit-test sizes).
//
// Exit status: 0 iff every run passed its checks (determinism across the
// sweep, plus the union-find certificate unless --no-verify).
#include <cinttypes>
#include <cstring>
#include <map>
#include <optional>

#include "bench_support.hpp"
#include "util/parallel.hpp"

namespace {

using namespace logcc;

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > pos) out.push_back(s.substr(pos, end - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

// FNV-1a over the label vector: a cheap fingerprint that must be identical
// across thread counts for the determinism verdict.
std::uint64_t labels_fingerprint(const std::vector<graph::VertexId>& labels) {
  std::uint64_t h = 1469598103934665603ULL;
  for (graph::VertexId v : labels) {
    h ^= v;
    h *= 1099511628211ULL;
  }
  return h;
}

struct RunRecord {
  std::string algorithm;
  int threads = 0;            // requested
  int threads_effective = 0;  // what the backend actually honoured
  int rep = 0;
  double seconds = 0.0;
  std::uint64_t components = 0;
  std::uint64_t labels_hash = 0;
  bool verified = true;  // union-find certificate (when enabled)
  core::RunStats stats;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace logcc::bench;

  util::Cli cli(argc, argv);
  const std::string generate = cli.get_string(
      "generate", "", "family:n[:seed] — generator shorthand for --dataset");
  const std::string binary_cache = cli.get_string(
      "binary-cache", "",
      "with --generate: stream the family to this binary CSR file, then "
      "mmap-load it (exercises the large-graph I/O path)");
  const std::string algorithms_arg = cli.get_string(
      "algorithms", "vanilla,theorem1,faster-cc,sv",
      "comma list of algorithm names (see cc_tool --help for the set)");
  const std::string threads_arg =
      cli.get_string("threads", "1,2,8", "comma list of thread counts");
  const int reps =
      static_cast<int>(cli.get_int("reps", 1, "repetitions per cell"));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 1, "base random seed"));
  const std::string json_path = cli.get_string(
      "json", "", "write the logcc-bench-v1 document here ('-' = stdout)");
  const bool no_verify = cli.get_flag(
      "no-verify", "skip the O(m a(n)) union-find certificate per run");
  const std::string dataset = cli.get_string(
      "dataset", "",
      "graph file (text or LOGCCSR1 binary) or gen:family:n[:seed]");
  const std::string populate_arg = cli.get_string(
      "populate", "none",
      "mmap page population for binary datasets: none|willneed|populate "
      "(recorded in bench.json)");
  const std::string backend_arg = cli.get_string(
      "backend", "",
      "parallel dispatch backend: pool|serial (default: the process "
      "default, LOGCC_BACKEND)");
  cli.finish();

  util::MmapPopulate populate = util::MmapPopulate::kNone;
  if (populate_arg == "willneed") {
    populate = util::MmapPopulate::kWillNeed;
  } else if (populate_arg == "populate") {
    populate = util::MmapPopulate::kPopulate;
  } else if (populate_arg != "none") {
    std::fprintf(stderr, "cc_bench: bad --populate '%s'\n",
                 populate_arg.c_str());
    return 2;
  }
  if (!backend_arg.empty()) {
    if (backend_arg == "pool") {
      util::set_parallel_backend(util::ParallelBackend::kPool);
    } else if (backend_arg == "serial") {
      util::set_parallel_backend(util::ParallelBackend::kSerial);
    } else {
      std::fprintf(stderr, "cc_bench: bad --backend '%s'\n",
                   backend_arg.c_str());
      return 2;
    }
  }

  // Validate the sweep flags BEFORE the (potentially minutes-long) dataset
  // streaming/loading: a typo must fail in milliseconds, not after the
  // 10^8-edge graph is on disk.
  std::vector<Algorithm> algorithms;
  for (const std::string& name : split_csv(algorithms_arg)) {
    const std::optional<Algorithm> alg = algorithm_from_string(name);
    if (!alg) {
      std::fprintf(stderr, "cc_bench: unknown algorithm '%s'; valid:",
                   name.c_str());
      for (Algorithm a : all_algorithms())
        std::fprintf(stderr, " %s", to_string(a));
      std::fprintf(stderr, "\n");
      return 2;
    }
    algorithms.push_back(*alg);
  }
  std::vector<int> threads;
  for (const std::string& t : split_csv(threads_arg)) {
    // Strict parse: a typo'd entry must not silently record runs under a
    // wrong thread count in the canonical bench.json.
    char* end = nullptr;
    const long v = std::strtol(t.c_str(), &end, 10);
    if (end != t.c_str() + t.size() || v < 1 || v > 4096) {
      std::fprintf(stderr, "cc_bench: bad thread count '%s'\n", t.c_str());
      return 2;
    }
    threads.push_back(static_cast<int>(v));
  }
  if (algorithms.empty() || threads.empty()) {
    std::fprintf(stderr,
                 "cc_bench: need at least one algorithm and thread count\n");
    return 2;
  }

  // Zero-copy resolution: binary (mmap) datasets stay in CSR form and the
  // algorithms ingest them directly — materialize_seconds must read 0 for
  // binary input (the CI bench smoke enforces it), so load→first-round
  // latency in this report is honest.
  graph::DatasetHandle handle;
  std::string dataset_name;  // overrides info().name for --generate runs
  double stream_seconds = 0.0;
  std::string error;
  if (!generate.empty() && !binary_cache.empty()) {
    // The paper-scale path: stream the generator to disk (O(n) memory, no
    // in-memory edge list), then load it back through the mmap loader.
    std::string family;
    std::uint64_t n = 0;
    std::uint64_t gseed = 1;
    if (!graph::parse_generator_spec(generate, family, n, gseed)) {
      std::fprintf(stderr, "cc_bench: bad --generate spec '%s'\n",
                   generate.c_str());
      return 2;
    }
    util::Timer t;
    if (!graph::stream_family_to_binary(family, n, gseed, binary_cache,
                                        &error)) {
      std::fprintf(stderr, "cc_bench: streaming '%s' failed: %s\n",
                   generate.c_str(), error.c_str());
      return 2;
    }
    stream_seconds = t.seconds();
    if (!graph::load_dataset_zero_copy(binary_cache, handle, &error,
                                       populate)) {
      std::fprintf(stderr, "cc_bench: %s\n", error.c_str());
      return 2;
    }
    dataset_name = generate;
  } else {
    std::string spec = !generate.empty() ? "gen:" + generate
                       : !dataset.empty() ? dataset
                                          : "gen:gnm2:65536";
    if (!graph::load_dataset_zero_copy(spec, handle, &error, populate)) {
      std::fprintf(stderr, "cc_bench: %s\n", error.c_str());
      return 2;
    }
    dataset_name = handle.info().name;
  }
  const graph::ArcsInput& input = handle.input();
  // Live reference, not a snapshot: materialize_seconds must reflect any
  // later handle.edges() call when the JSON is emitted, or the CI
  // zero-copy gate could never catch a materialization regression.
  const graph::DatasetInfo& info = handle.info();

  std::printf("dataset %s (%s): n=%" PRIu64 " edges=%" PRIu64
              " load=%.2fs materialize=%.2fs populate=%s%s\n",
              dataset_name.c_str(), info.source.c_str(), input.num_vertices(),
              input.num_edges(), info.load_seconds, info.materialize_seconds,
              util::to_string(info.populate),
              input.csr_backed() ? " (csr-native, zero-copy)" : "");
  std::printf("runtime: backend=%s grain=%zu\n", util::parallel_backend_name(),
              util::parallel_grain());
  if (stream_seconds > 0)
    std::printf("streamed to %s in %.2fs (%" PRIu64 " file bytes, mmap)\n",
                binary_cache.c_str(), stream_seconds, info.file_bytes);

  const int max_threads = util::hardware_parallelism();
  std::vector<RunRecord> runs;
  for (int t : threads) {
    util::set_parallelism(t);
    // Serial builds ignore set_parallelism; record what actually ran so the
    // perf trajectory never contains fabricated thread-scaling rows.
    const int effective = util::hardware_parallelism();
    if (effective != t)
      std::fprintf(stderr,
                   "cc_bench: warning: requested %d threads, backend runs "
                   "%d (serial build?)\n",
                   t, effective);
    for (const Algorithm alg : algorithms) {
      const std::string alg_name = to_string(alg);
      for (int rep = 0; rep < reps; ++rep) {
        Options opt;
        opt.seed = seed + 7919ULL * static_cast<std::uint64_t>(rep);
        auto r = connected_components(input, alg, opt);
        RunRecord rec;
        rec.algorithm = alg_name;
        rec.threads = t;
        rec.threads_effective = effective;
        rec.rep = rep;
        rec.seconds = r.seconds;
        rec.components = r.num_components();
        rec.labels_hash = labels_fingerprint(r.labels());
        rec.stats = r.stats;
        if (!no_verify) rec.verified = verify_components(input, r.index);
        runs.push_back(rec);
        std::printf("  %-10s t=%d rep=%d: %.3fs components=%" PRIu64
                    " rounds=%" PRIu64 " phases=%" PRIu64 "%s\n",
                    alg_name.c_str(), t, rep, rec.seconds, rec.components,
                    rec.stats.rounds, rec.stats.phases,
                    rec.verified ? "" : "  VERIFY-FAIL");
      }
    }
  }
  util::set_parallelism(max_threads);

  // Determinism verdict: for each (algorithm, rep), every thread count must
  // produce the same component count and label fingerprint.
  bool deterministic = true;
  bool all_verified = true;
  std::map<std::pair<std::string, int>, std::pair<std::uint64_t, std::uint64_t>>
      first_seen;
  for (const RunRecord& r : runs) {
    all_verified = all_verified && r.verified;
    const auto key = std::make_pair(r.algorithm, r.rep);
    const auto val = std::make_pair(r.components, r.labels_hash);
    auto [it, inserted] = first_seen.emplace(key, val);
    if (!inserted && it->second != val) {
      deterministic = false;
      std::fprintf(stderr,
                   "cc_bench: %s rep %d differs across thread counts\n",
                   r.algorithm.c_str(), r.rep);
    }
  }
  std::printf("thread-count determinism: %s   certificates: %s\n",
              deterministic ? "PASS" : "FAIL",
              no_verify ? "skipped" : (all_verified ? "PASS" : "FAIL"));

  if (!json_path.empty()) {
    std::FILE* out =
        json_path == "-" ? stdout : std::fopen(json_path.c_str(), "w");
    if (!out) {
      std::fprintf(stderr, "cc_bench: cannot write '%s'\n", json_path.c_str());
      return 2;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"schema\": \"logcc-bench-v1\",\n"
                 "  \"driver\": \"cc_bench\",\n"
                 "  \"runtime\": {\"backend\": \"%s\", \"grain\": %zu},\n"
                 "  \"dataset\": {\"name\": \"%s\", \"source\": \"%s\", "
                 "\"n\": %" PRIu64 ", \"edges\": %" PRIu64
                 ", \"file_bytes\": %" PRIu64
                 ", \"load_seconds\": %.6f, \"materialize_seconds\": %.6f"
                 ", \"stream_seconds\": %.6f, \"csr_native\": %s"
                 ", \"populate\": \"%s\"},\n"
                 "  \"sweep\": {\"threads\": [",
                 util::parallel_backend_name(), util::parallel_grain(),
                 json_escape(dataset_name).c_str(),
                 json_escape(info.source).c_str(), input.num_vertices(),
                 input.num_edges(), info.file_bytes, info.load_seconds,
                 info.materialize_seconds, stream_seconds,
                 input.csr_backed() ? "true" : "false",
                 util::to_string(info.populate));
    for (std::size_t i = 0; i < threads.size(); ++i)
      std::fprintf(out, "%s%d", i ? ", " : "", threads[i]);
    std::fprintf(out,
                 "], \"reps\": %d, \"seed\": %" PRIu64
                 ", \"hardware_parallelism\": %d},\n"
                 "  \"deterministic\": %s,\n"
                 "  \"verified\": %s,\n"
                 "  \"runs\": [\n",
                 reps, seed, max_threads, deterministic ? "true" : "false",
                 no_verify ? "null" : (all_verified ? "true" : "false"));
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const RunRecord& r = runs[i];
      std::fprintf(
          out,
          "    {\"algorithm\": \"%s\", \"threads\": %d, "
          "\"threads_effective\": %d, \"rep\": %d, "
          "\"seconds\": %.6f, \"components\": %" PRIu64
          ", \"labels_hash\": \"%016" PRIx64 "\", \"verified\": %s, "
          "\"rounds\": %" PRIu64 ", \"phases\": %" PRIu64
          ", \"prepare_phases\": %" PRIu64 ", \"expand_rounds\": %" PRIu64
          ", \"max_level\": %u, \"peak_space_words\": %" PRIu64 "}%s\n",
          json_escape(r.algorithm).c_str(), r.threads, r.threads_effective,
          r.rep, r.seconds,
          r.components, r.labels_hash,
          no_verify ? "null" : (r.verified ? "true" : "false"),
          r.stats.rounds, r.stats.phases, r.stats.prepare_phases,
          r.stats.expand_rounds, r.stats.max_level, r.stats.peak_space_words,
          i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    if (out != stdout) std::fclose(out);
    if (json_path != "-")
      std::printf("wrote %s (logcc-bench-v1, %zu runs)\n", json_path.c_str(),
                  runs.size());
  }

  return (deterministic && (no_verify || all_verified)) ? 0 : 1;
}
