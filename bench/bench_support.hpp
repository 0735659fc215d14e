// Shared helpers for the experiment binaries: algorithm running with oracle
// checks, dataset/workload resolution (file, binary, or generator spec), and
// small formatting utilities. Every bench main goes through these instead of
// rolling its own setup, so `--dataset` works uniformly across the suite.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "baselines/bfs_cc.hpp"
#include "core/connectivity.hpp"
#include "graph/binary_io.hpp"
#include "graph/generators.hpp"
#include "graph/graph_algos.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace logcc::bench {

/// A named input graph plus provenance (how it was loaded). Zero-copy: the
/// shared handle owns the backing storage (mmap for binary datasets, the
/// edge vector otherwise) and `input` views it — binary datasets are never
/// re-materialized unless a bench explicitly asks for indexed edges via
/// el(). The handle must stay alive as long as `input` is used (it is,
/// because Workload holds it).
struct Workload {
  std::string name;
  std::shared_ptr<graph::DatasetHandle> handle;
  graph::ArcsInput input;

  /// Live provenance record (not a copy: el() below updates
  /// materialize_seconds in place).
  const graph::DatasetInfo& info() const { return handle->info(); }

  /// Indexed edge storage, materialized (and cached) on demand; the
  /// conversion time lands in info().materialize_seconds, kept separate
  /// from both load and algorithm time.
  const graph::EdgeList& el() const { return handle->edges(); }
};

/// Uniform workload resolution for bench mains. Declares `--dataset` on the
/// CLI: when passed (a text/binary file path or a `gen:family:n[:seed]`
/// spec — anything graph::load_dataset_zero_copy accepts) it overrides the
/// default family sweep with that single input; otherwise each name in
/// `families` is generated at `default_n` vertices. Exits with a message on
/// unreadable datasets, so every bench fails loudly and identically.
inline Workload resolve_one_workload(const std::string& program,
                                     const std::string& spec) {
  Workload w;
  w.handle = std::make_shared<graph::DatasetHandle>();
  std::string error;
  if (!graph::load_dataset_zero_copy(spec, *w.handle, &error)) {
    std::fprintf(stderr, "%s: %s\n", program.c_str(), error.c_str());
    std::exit(2);
  }
  w.input = w.handle->input();
  w.name = w.handle->info().name;
  return w;
}

inline std::vector<Workload> resolve_workloads(
    util::Cli& cli, std::uint64_t default_n,
    const std::vector<std::string>& families, std::uint64_t seed = 99) {
  const std::string dataset = cli.get_string(
      "dataset", "",
      "graph file (text or LOGCCSR1 binary) or gen:family:n[:seed]; "
      "overrides the built-in family sweep");
  std::vector<Workload> out;
  if (!dataset.empty()) {
    out.push_back(resolve_one_workload(cli.program(), dataset));
    return out;
  }
  for (const std::string& family : families) {
    Workload w = resolve_one_workload(
        cli.program(), "gen:" + family + ":" + std::to_string(default_n) +
                           ":" + std::to_string(seed));
    w.name = family;
    out.push_back(std::move(w));
  }
  return out;
}

/// Minimal JSON string escaping for the bench.json emitters (quotes,
/// backslashes, control bytes — dataset names and error strings only ever
/// need this much).
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// "Progress rounds" — the quantity each theorem bounds: EXPAND-MAXLINK
/// rounds for Theorem 3, phases for the phase-structured algorithms, rounds
/// for the classical baselines.
inline std::uint64_t progress_rounds(const ComponentsResult& r) {
  return r.stats.rounds + r.stats.phases + r.stats.prepare_phases;
}

struct RunOutcome {
  double seconds = 0.0;
  std::uint64_t rounds = 0;
  bool correct = false;
  core::RunStats stats;
};

/// Runs an algorithm, checks against the oracle, and averages over `reps`
/// seeds (rounds are averaged, seconds take the median-of-reps minimum).
/// `base` carries algorithm-specific overrides (seed is replaced per rep).
/// The ArcsInput overload runs CSR-backed datasets zero-copy (the oracle
/// BFS too); the EdgeList overload forwards.
inline RunOutcome run_algorithm(const graph::ArcsInput& in, Algorithm alg,
                                std::uint64_t base_seed = 1, int reps = 3,
                                const Options& base = {}) {
  RunOutcome out;
  auto oracle = baselines::bfs_cc(in).labels;
  util::Accumulator secs, rounds;
  out.correct = true;
  for (int rep = 0; rep < reps; ++rep) {
    Options opt = base;
    opt.seed = base_seed + 7919ULL * static_cast<std::uint64_t>(rep);
    auto r = connected_components(in, alg, opt);
    secs.add(r.seconds);
    rounds.add(static_cast<double>(progress_rounds(r)));
    out.correct = out.correct && graph::same_partition(oracle, r.labels());
    out.stats = r.stats;
  }
  out.seconds = util::percentile(secs.values(), 50.0);
  out.rounds = static_cast<std::uint64_t>(rounds.summary().mean + 0.5);
  return out;
}

inline RunOutcome run_algorithm(const graph::EdgeList& el, Algorithm alg,
                                std::uint64_t base_seed = 1, int reps = 3,
                                const Options& base = {}) {
  return run_algorithm(graph::ArcsInput::from_edges(el), alg, base_seed, reps,
                       base);
}

inline void header(const char* id, const char* claim) {
  std::printf("\n=== %s ===\n%s\n\n", id, claim);
}

}  // namespace logcc::bench
