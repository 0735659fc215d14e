// Sketch-vs-exact differential harness: the same ~230-graph corpus as
// tests/test_differential_cc.cpp (every generator family x sizes x seeds,
// the structural zoo, a seeded G(n, m) sweep), each graph run through BOTH
// tiers:
//
//   exact    — the batch connected_components() path (whose correctness the
//              cc differential suite already pins against union-find), and
//   approx   — the one-pass sketch::StreamStats consuming the edge list as
//              a stream.
//
// What must hold on every graph:
//   * StreamStats labels are BITWISE the exact canonical labels (the
//     streaming union-find is exact; only edge-mass answers are sketched);
//   * the component-count HLL lands within its a-priori error bound;
//   * the size count-min never undershoots any component's true size and
//     overshoots by more than epsilon * n on at most a delta-ish fraction.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/connectivity.hpp"
#include "graph/generators.hpp"
#include "sketch/stream_stats.hpp"
#include "test_support.hpp"
#include "util/random.hpp"

namespace logcc {
namespace {

struct Case {
  std::string name;
  graph::EdgeList el;
};

// The same corpus recipe as test_differential_cc.cpp: 12 families x 3
// sizes x 3 seeds + the zoo + 108 seeded G(n, m) draws.
std::vector<Case> corpus() {
  std::vector<Case> out;
  for (const std::string& family : graph::family_names()) {
    for (std::uint64_t n : {33ULL, 80ULL, 193ULL}) {
      for (std::uint64_t seed : {1ULL, 5ULL, 11ULL}) {
        Case c;
        c.name = family + ":" + std::to_string(n) + ":" + std::to_string(seed);
        c.el = graph::make_family(family, n, seed);
        out.push_back(std::move(c));
      }
    }
  }
  for (auto& [name, el] : logcc::testing::small_zoo())
    out.push_back({"zoo/" + name, el});
  for (std::uint64_t i = 0; i < 108; ++i) {
    const std::uint64_t n = 2 + util::mix64(0xD1FF, i, 0) % 180;
    const std::uint64_t m = util::mix64(0xD1FF, i, 1) % (3 * n);
    Case c;
    c.name = "gnm/" + std::to_string(n) + "x" + std::to_string(m) + "#" +
             std::to_string(i);
    c.el = graph::make_gnm(n, m, 977 + i);
    out.push_back(std::move(c));
  }
  return out;
}

TEST(DifferentialSketch, StreamingTierAgreesWithExactTierOnCorpus) {
  const auto cases = corpus();
  ASSERT_GE(cases.size(), 200u);
  for (const Case& c : cases) {
    // Exact tier.
    auto r = connected_components(graph::ArcsInput::from_edges(c.el),
                                  Algorithm::kFasterCC, {});
    auto index = std::make_shared<const core::ComponentIndex>(
        core::ComponentIndex::from_canonical_labels(r.labels()));

    // Approx tier, streaming path.
    sketch::StreamStats stats(c.el.n);
    for (const auto& e : c.el.edges) stats.add_edge(e.u, e.v);
    const auto summary = stats.finish();

    // The connectivity answers are exact and bitwise canonical.
    ASSERT_EQ(stats.labels(), index->labels()) << c.name;
    ASSERT_EQ(summary.exact_components, index->num_components()) << c.name;

    // The component-count estimate honours its error bar (5 sigma plus one
    // component of absolute slack for the tiny-count graphs).
    const auto exact = static_cast<double>(index->num_components());
    EXPECT_NEAR(summary.approx_components, exact,
                5.0 * summary.hll_standard_error * exact + 1.0)
        << c.name;

    // Size estimates: overestimate-only, bounded by epsilon * n.
    const auto& sizes = stats.size_cms();
    const double size_bound =
        sizes.epsilon() * static_cast<double>(sizes.total());
    std::uint64_t size_violations = 0;
    std::uint64_t roots = 0;
    for (graph::VertexId v = 0; v < c.el.n; ++v) {
      if (index->component_of(v) != v) continue;  // roots only
      ++roots;
      const std::uint64_t exact_size = index->component_size(v);
      const std::uint64_t est = sizes.estimate(v);
      ASSERT_GE(est, exact_size) << c.name << " root=" << v;
      if (static_cast<double>(est - exact_size) > size_bound)
        ++size_violations;
    }
    // delta = e^-depth per key; corpus graphs are small enough that even
    // one violation is ~2x the expectation, so threshold generously but
    // meaningfully: no more than 10% of roots (expected ~1.8%).
    EXPECT_LE(static_cast<double>(size_violations),
              0.1 * static_cast<double>(roots) + 1.0)
        << c.name;
  }
}

}  // namespace
}  // namespace logcc
