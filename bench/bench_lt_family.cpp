// B1 — the Liu–Tarjan simple-algorithm family (§2.2's framework source):
// round counts of all 12 connect/shortcut/alter combinations across graph
// families. Expected shape (LT'19): extended-connect ≤ parent-connect ≤
// direct-connect rounds; full shortcutting never hurts; ALTER helps the
// sparse high-diameter families.
#include "bench_support.hpp"
#include "baselines/lt_family.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace logcc;
  using namespace logcc::bench;
  using namespace logcc::baselines;

  util::Cli cli(argc, argv);
  const std::uint64_t n =
      static_cast<std::uint64_t>(cli.get_int("n", 4096, "vertex count"));
  const std::vector<Workload> workloads = resolve_workloads(
      cli, n, {"path", "grid", "tree", "gnm2", "rmat", "caterpillar"},
      /*seed=*/13);
  cli.finish();

  header("B1: Liu–Tarjan family round counts",
         "claim (LT'19): E <= P <= D rounds; F-shortcut never hurts; the "
         "paper's framework baselines");

  std::vector<std::string> cols{"variant"};
  for (const auto& w : workloads) cols.push_back(w.name);
  util::TextTable table(cols);

  bool all_correct = true;
  for (const LtVariant& v : lt_all_variants()) {
    table.row().add(v.name());
    for (const Workload& w : workloads) {
      // The LT-variant lab (baselines/lt_family) still takes an EdgeList;
      // the oracle runs zero-copy off the input.
      auto r = liu_tarjan_variant(w.el(), v);
      auto oracle = baselines::bfs_cc(w.input).labels;
      all_correct = all_correct && graph::same_partition(oracle, r.labels);
      table.add_int(static_cast<long long>(r.stats.rounds));
    }
  }
  table.print();
  std::printf("\nall answers matched the BFS oracle: %s\n",
              all_correct ? "PASS" : "FAIL");
  return 0;
}
