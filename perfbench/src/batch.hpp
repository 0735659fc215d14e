// The batch path: mmap load -> connected_components(faster-cc) ->
// ComponentIndex, checked against a union-find reference.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/component_index.hpp"
#include "core/metrics.hpp"
#include "graph/binary_io.hpp"

namespace perfbench {

struct BatchInput {
  logcc::graph::DatasetHandle handle;
  logcc::core::ComponentIndex reference;  // union-find, canonical
};

/// One set-up: open + deep validate, the union-find reference index and a
/// warm-up faster-cc run checked against it. `load_s` receives the open +
/// validate wall time.
bool setup_batch(const std::string& csr_path, std::uint64_t warm_seed,
                 Tally& tally, BatchInput* out, double* load_s);

/// What one timed faster-cc repetition did, so a change in work can be told
/// apart from a change in speed.
struct Rep {
  std::uint64_t seed = 0;
  int lanes = 0;
  Elapsed time;
  logcc::core::RunStats stats;
};

/// Alternates 2-lane and 1-lane connected_components(faster-cc) runs with
/// per-rep seeds derived from `seed` until `budget_s` is spent (at least
/// `min_pairs` pairs). Every result must equal the reference index.
std::vector<Rep> run_labels(const BatchInput& in, std::uint64_t seed,
                            double budget_s, int min_pairs, Tally& tally);

/// Seed of timed repetition k under workload seed `seed`.
std::uint64_t rep_seed(std::uint64_t seed, std::uint64_t k);

/// Traced pass: faster-cc driven through its public stages, per-layer
/// metrics appended to `metrics`.
void run_traced_labels(const BatchInput& in, std::uint64_t seed, int reps,
                       SpanLog& log, Tally& tally, Metrics& metrics);

}  // namespace perfbench
