// A1 — ablations of the Theorem-3 design choices that §1.2.2 of the paper
// motivates. Each is one ParamPolicy field, so a run changes one choice and
// keeps the rest:
//   * MAXLINK iterations: the paper uses exactly 2 (Lemma 3.21's two-hop
//     argument); 1 should degrade round counts, 3 should buy ~nothing;
//   * budget growth exponent: 1.01 (paper) vs 1.5 (practical) vs 2.0 —
//     slower growth means more levels before saturation;
//   * level-raise exponent: larger exponents raise less often, slowing the
//     desynchronisation of dense clusters;
//   * table shape: |H(v)| = sqrt(b) (paper) vs b (practical) — smaller
//     tables collide more, forcing more levels.
#include "bench_support.hpp"
#include "core/budget.hpp"
#include "core/faster_cc.hpp"
#include "util/cli.hpp"

namespace {

using namespace logcc;
using namespace logcc::bench;

struct Variant {
  std::string name;
  core::ParamPolicy policy;
};

struct Row {
  std::string name;
  double rounds = 0;
  double max_level = 0;
  int finishers = 0;
  bool correct = true;
};

Row run_variant(const graph::EdgeList& el, const Variant& v, int reps) {
  Row row;
  row.name = v.name;
  auto oracle = graph::bfs_components(graph::Graph::from_edges(el));
  for (int rep = 0; rep < reps; ++rep) {
    core::FasterCcParams p;
    p.seed = 31 + rep * 1009;
    p.policy_override = v.policy;
    auto r = core::faster_cc(el, p);
    row.rounds += static_cast<double>(r.stats.rounds) / reps;
    row.max_level =
        std::max(row.max_level, static_cast<double>(r.stats.max_level));
    row.finishers += r.stats.finisher_used;
    row.correct =
        row.correct && graph::same_partition(oracle, graph::canonical_labels(r.labels));
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::uint64_t n =
      static_cast<std::uint64_t>(cli.get_int("n", 4096, "vertex count"));
  const int reps = static_cast<int>(cli.get_int("reps", 3, "seeds per cell"));
  cli.finish();

  header("A1: ablations of Theorem-3 design choices",
         "claim: 2 MAXLINK iterations are load-bearing; budget growth / "
         "raise exponent / table shape trade rounds vs levels exactly as "
         "the analysis predicts");

  struct Workload {
    const char* name;
    graph::EdgeList el;
  };
  std::vector<Workload> workloads;
  workloads.push_back({"path4096", graph::make_path(n)});
  workloads.push_back({"gnm m=4n", graph::make_gnm(n, 4 * n, 77)});

  for (const Workload& w : workloads) {
    const std::uint64_t m = std::max<std::uint64_t>(w.el.edges.size(), 1);
    core::ParamPolicy base = core::ParamPolicy::practical(2 * w.el.n, m);

    std::vector<Variant> variants;
    {
      char label[128];
      std::snprintf(label, sizeof label,
                    "baseline (maxlink x2, growth %.2f, raise %.2f/b^%.2f, "
                    "full table)",
                    base.growth, base.raise_coeff, base.raise_exponent);
      variants.push_back({label, base});
    }
    {
      core::ParamPolicy p = base;
      p.maxlink_iterations = 1;
      variants.push_back({"maxlink x1", p});
    }
    {
      core::ParamPolicy p = base;
      p.maxlink_iterations = 3;
      variants.push_back({"maxlink x3", p});
    }
    {
      core::ParamPolicy p = base;
      p.growth = 1.1;
      variants.push_back({"budget growth 1.1", p});
    }
    {
      core::ParamPolicy p = base;
      p.growth = 2.0;
      variants.push_back({"budget growth 2.0", p});
    }
    {
      core::ParamPolicy p = base;
      p.raise_exponent = 0.6;
      variants.push_back({"raise exponent 0.6", p});
    }
    {
      core::ParamPolicy p = base;
      p.raise_exponent = 0.1;
      variants.push_back({"raise exponent 0.1", p});
    }
    {
      core::ParamPolicy p = base;
      p.table_is_sqrt = true;
      variants.push_back({"sqrt tables (paper shape)", p});
    }

    std::printf("\nworkload: %s (n=%llu, m=%llu)\n", w.name,
                static_cast<unsigned long long>(w.el.n),
                static_cast<unsigned long long>(m));
    util::TextTable table(
        {"variant", "mean rounds", "max level", "finisher", "correct"});
    for (const Variant& v : variants) {
      Row row = run_variant(w.el, v, reps);
      table.row()
          .add(row.name)
          .add_double(row.rounds, 1)
          .add_double(row.max_level, 0)
          .add_int(row.finishers)
          .add(row.correct ? "yes" : "NO");
    }
    table.print();
  }
  return 0;
}
