// Statistical verification of the approximate tier's error guarantees.
// Everything here is a seed sweep: >= 50 deterministic sketch seeds per
// (family, size) configuration, and the claimed bound is checked both
// per seed (with generous sigma slack, printing the seed on failure so a
// bad constant is immediately reproducible) and in aggregate (mean /
// RMS / fraction-within, where the slack can be tight). The sweeps are
// counter-based mix64 all the way down, so the suite is bit-deterministic:
// it can never flake, only genuinely break when the estimators change.
//
//   HyperLogLog  relative error vs the 1.04/sqrt(m) standard error, across
//                precisions and true cardinalities (both the bias-corrected
//                and the linear-counting regime).
//   CountMin     estimate >= truth ALWAYS (hard invariant, both update
//                modes), and the (epsilon, delta) overestimate bound:
//                excess > epsilon * N for at most ~delta of the keys.
//   Components   the HLL-over-labels component-count estimate that
//                cc_tool --sketch reports, on real label arrays from
//                multi-component graph families.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "core/connectivity.hpp"
#include "graph/generators.hpp"
#include "sketch/count_min.hpp"
#include "sketch/hyperloglog.hpp"
#include "sketch/stream_stats.hpp"
#include "test_support.hpp"
#include "util/random.hpp"

namespace {

using namespace logcc;
using sketch::CmsUpdate;
using sketch::CountMinSketch;
using sketch::HyperLogLog;

constexpr int kSeeds = 50;

struct ErrorStats {
  double sum_abs = 0.0;
  double sum_sq = 0.0;
  int within_2sigma = 0;
  int count = 0;

  void record(double rel_error, double sigma) {
    sum_abs += std::abs(rel_error);
    sum_sq += rel_error * rel_error;
    if (std::abs(rel_error) <= 2.0 * sigma) ++within_2sigma;
    ++count;
  }
  double mean_abs() const { return sum_abs / count; }
  double rms() const { return std::sqrt(sum_sq / count); }
  double frac_within_2sigma() const {
    return static_cast<double>(within_2sigma) / count;
  }
};

// ------------------------------------------------- HLL cardinality error ---

TEST(SketchAccuracy, HllRelativeErrorWithinStandardErrorBound) {
  // 50 sketch seeds per (precision, cardinality) cell. Per-seed bound: 5
  // sigma (a normal tail beyond 5 sigma over 450 draws is ~1e-4 expected
  // events; with fixed seeds the check is deterministic anyway — the slack
  // is against estimator bias, not luck). Aggregate bounds are tight: for
  // |N(0, sigma)| the mean is ~0.8 sigma and the RMS is sigma; 1.2 / 1.4
  // catch a mis-sized constant while tolerating small-sample wobble.
  for (int precision : {8, 10, 12}) {
    for (std::uint64_t cardinality : {500u, 5000u, 50000u}) {
      const double sigma = 1.04 / std::sqrt(std::ldexp(1.0, precision));
      ErrorStats agg;
      for (int s = 1; s <= kSeeds; ++s) {
        HyperLogLog hll(precision, static_cast<std::uint64_t>(s));
        // Distinct items: (seed << 20) + i stays injective for N < 2^20
        // and i < 2^20; the sketch's own mix64 provides the distribution.
        for (std::uint64_t i = 0; i < cardinality; ++i)
          hll.add((static_cast<std::uint64_t>(s) << 20) + i);
        const double rel =
            (hll.estimate() - static_cast<double>(cardinality)) /
            static_cast<double>(cardinality);
        EXPECT_LE(std::abs(rel), 5.0 * sigma)
            << "seed=" << s << " precision=" << precision
            << " cardinality=" << cardinality
            << " estimate=" << hll.estimate();
        agg.record(rel, sigma);
      }
      EXPECT_LE(agg.mean_abs(), 1.2 * sigma)
          << "precision=" << precision << " cardinality=" << cardinality;
      EXPECT_LE(agg.rms(), 1.4 * sigma)
          << "precision=" << precision << " cardinality=" << cardinality;
      EXPECT_GE(agg.frac_within_2sigma(), 0.85)
          << "precision=" << precision << " cardinality=" << cardinality;
    }
  }
}

TEST(SketchAccuracy, HllStandardErrorAccessorMatchesTheory) {
  for (int p : {4, 8, 12, 16}) {
    HyperLogLog hll(p, 1);
    EXPECT_NEAR(hll.standard_error(), 1.04 / std::sqrt(std::ldexp(1.0, p)),
                1e-12);
  }
}

// -------------------------------------------- count-min frequency error ---

/// A deterministic skewed stream: 20k draws over ~1k distinct keys, with
/// key popularity following the mix64 draw squared (a crude zipf stand-in:
/// a few hot keys, a long tail).
std::vector<std::uint64_t> skewed_stream(std::uint64_t seed) {
  std::vector<std::uint64_t> keys;
  keys.reserve(20000);
  for (std::uint64_t i = 0; i < 20000; ++i) {
    const double u = static_cast<double>(util::mix64(seed, i) >> 11) *
                     0x1.0p-53;  // uniform in [0, 1)
    keys.push_back(static_cast<std::uint64_t>(u * u * 1000.0));
  }
  return keys;
}

TEST(SketchAccuracy, CountMinOverestimateOnlyAndEpsilonBound) {
  for (CmsUpdate mode : {CmsUpdate::kStandard, CmsUpdate::kConservative}) {
    std::uint64_t violations = 0;
    std::uint64_t checks = 0;
    for (int s = 1; s <= kSeeds; ++s) {
      const auto stream = skewed_stream(static_cast<std::uint64_t>(s) * 977);
      std::map<std::uint64_t, std::uint64_t> truth;
      for (std::uint64_t k : stream) ++truth[k];
      CountMinSketch cms(4, 2048, static_cast<std::uint64_t>(s), mode);
      for (std::uint64_t k : stream) cms.add(k);
      const double bound =
          cms.epsilon() * static_cast<double>(cms.total());
      for (const auto& [k, count] : truth) {
        const std::uint64_t est = cms.estimate(k);
        // The hard invariant: count-min never undershoots, either mode.
        ASSERT_GE(est, count) << "seed=" << s << " key=" << k
                              << " mode=" << static_cast<int>(mode);
        ++checks;
        if (static_cast<double>(est - count) > bound) ++violations;
      }
    }
    // Per key the bound fails with probability <= delta = e^-4 ~ 1.8%; the
    // pairwise row hashes are not fully independent, so allow 2x headroom.
    const double rate =
        static_cast<double>(violations) / static_cast<double>(checks);
    EXPECT_LE(rate, 2.0 * std::exp(-4.0))
        << "mode=" << static_cast<int>(mode) << " violations=" << violations
        << "/" << checks;
  }
}

TEST(SketchAccuracy, CountMinErrorShrinksWithWidth) {
  // Mean overestimate must decrease (weakly) as width doubles — the space
  // axis of bench_sketch's error-vs-space curve, pinned as a monotone law
  // averaged over seeds.
  double last = 1e18;
  for (std::uint32_t width : {256u, 1024u, 4096u}) {
    double total_over = 0.0;
    std::uint64_t keys_seen = 0;
    for (int s = 1; s <= kSeeds; ++s) {
      const auto stream = skewed_stream(static_cast<std::uint64_t>(s) * 131);
      std::map<std::uint64_t, std::uint64_t> truth;
      for (std::uint64_t k : stream) ++truth[k];
      CountMinSketch cms(4, width, static_cast<std::uint64_t>(s));
      for (std::uint64_t k : stream) cms.add(k);
      for (const auto& [k, count] : truth) {
        total_over += static_cast<double>(cms.estimate(k) - count);
        ++keys_seen;
      }
    }
    const double mean_over = total_over / static_cast<double>(keys_seen);
    EXPECT_LT(mean_over, last) << "width=" << width;
    last = mean_over;
  }
}

// ----------------------------------- component-count estimate on graphs ---

TEST(SketchAccuracy, ComponentCountEstimateOnMultiComponentFamilies) {
  // Real label arrays with many components: a path forest (6 * 800 paths)
  // and a sparse gnm (n >> m leaves ~n - m components). The graph is fixed
  // per family; the 50 seeds sweep the sketch, as different
  // cc_tool --sketch --seed values would.
  struct Family {
    const char* name;
    graph::EdgeList el;
  };
  const Family families[] = {
      {"path-forest", graph::make_path_forest(800, 6)},
      {"sparse-gnm", graph::make_gnm(20000, 6000, 3)},
  };
  for (const auto& family : families) {
    auto r = connected_components(graph::ArcsInput::from_edges(family.el),
                                  Algorithm::kFasterCC, {});
    const auto exact = static_cast<double>(r.num_components());
    const std::vector<graph::VertexId> labels = r.labels();
    const int precision = 12;
    const double sigma = 1.04 / std::sqrt(std::ldexp(1.0, precision));
    ErrorStats agg;
    for (int s = 1; s <= kSeeds; ++s) {
      HyperLogLog hll(precision, static_cast<std::uint64_t>(s));
      for (graph::VertexId l : labels) hll.add(l);
      const double rel = (hll.estimate() - exact) / exact;
      EXPECT_LE(std::abs(rel), 5.0 * sigma)
          << family.name << " seed=" << s << " exact=" << exact
          << " estimate=" << hll.estimate();
      agg.record(rel, sigma);
    }
    EXPECT_LE(agg.mean_abs(), 1.2 * sigma) << family.name;
    EXPECT_GE(agg.frac_within_2sigma(), 0.85) << family.name;
  }
}

TEST(SketchAccuracy, StreamStatsSummaryBoundsOnZoo) {
  // The error bars StreamSummary reports must be the honest a-priori ones,
  // and its exact fields exact: swept across the zoo with default options.
  for (const auto& [name, el] : logcc::testing::small_zoo()) {
    sketch::StreamStats stats(el.n);
    for (const auto& e : el.edges) stats.add_edge(e.u, e.v);
    const auto summary = stats.finish();
    EXPECT_NEAR(summary.hll_standard_error, 1.04 / 64.0, 1e-12) << name;
    // Zoo graphs are tiny relative to m = 2^12: linear counting holds and
    // the estimates land within a few percent even at 5 sigma slack.
    const double slack = 5.0 * summary.hll_standard_error;
    const auto exact = static_cast<double>(summary.exact_components);
    EXPECT_NEAR(summary.approx_components, exact, exact * slack + 1.0)
        << name;
  }
}

}  // namespace
