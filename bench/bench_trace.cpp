// T5 — per-round convergence traces of EXPAND-MAXLINK.
//
// The textual analogue of a convergence figure: for each round of the
// Theorem-3 loop, the number of live roots, roots still incident to an
// edge, accumulated added edges, hash collisions and level raises. Shapes
// checked against the analysis:
//   * active roots shrink at least geometrically once budgets saturate
//     (the double-exponential progress of §1.2);
//   * the maximum level plateaus at the saturation level (Lemma 3.19);
//   * collisions die out as tables outgrow their load.
#include "bench_support.hpp"
#include "core/compact.hpp"
#include "core/expand_maxlink.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace logcc;
  using namespace logcc::bench;

  util::Cli cli(argc, argv);
  const std::uint64_t n =
      static_cast<std::uint64_t>(cli.get_int("n", 16384, "vertex count"));
  cli.finish();

  header("T5: EXPAND-MAXLINK per-round convergence traces",
         "claim: geometric active-root decay, level plateau (Lemma 3.19), "
         "vanishing collisions");

  struct W {
    const char* name;
    graph::EdgeList el;
  };
  std::vector<W> ws;
  ws.push_back({"path", graph::make_path(n)});
  ws.push_back({"gnm m=4n", graph::make_gnm(n, 4 * n, 9)});

  for (const W& w : ws) {
    core::RunStats stats;
    auto arcs = core::arcs_from_input(w.el);
    std::vector<std::uint8_t> exists(w.el.n, 1);
    core::ParamPolicy policy = core::ParamPolicy::practical(
        w.el.n, std::max<std::uint64_t>(w.el.edges.size(), 1));
    core::ExpandMaxlink engine(w.el.n, arcs, exists, policy, 17, stats);
    engine.enable_trace();
    bool done = false;
    for (int r = 0; r < 200 && !done; ++r) done = engine.round();

    std::printf("\nworkload: %s (n=%llu) — %s after %llu rounds\n", w.name,
                static_cast<unsigned long long>(w.el.n),
                done ? "break condition reached" : "round cap hit",
                static_cast<unsigned long long>(engine.rounds_run()));
    util::TextTable table({"round", "roots", "active", "added-edges",
                           "collisions", "raises", "max-level"});
    std::vector<double> active_series;
    for (const core::RoundTrace& t : engine.trace()) {
      table.row()
          .add_int(static_cast<long long>(t.round))
          .add_int(static_cast<long long>(t.roots))
          .add_int(static_cast<long long>(t.active_roots))
          .add_int(static_cast<long long>(t.added_edges))
          .add_int(static_cast<long long>(t.collisions))
          .add_int(static_cast<long long>(t.raises))
          .add_int(t.max_level);
      active_series.push_back(static_cast<double>(t.active_roots));
    }
    table.print();
    std::printf("active-root decay: [%s]\n",
                util::sparkline(active_series).c_str());
    bool decays = active_series.empty() ||
                  active_series.back() <= active_series.front() / 4 ||
                  active_series.back() == 0;
    std::printf("shape check: active roots decayed: %s\n",
                decays ? "PASS" : "INCONCLUSIVE");
  }
  return 0;
}
