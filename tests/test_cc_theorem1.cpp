#include "core/cc_theorem1.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/graph_algos.hpp"
#include "test_support.hpp"

namespace logcc::core {
namespace {

using logcc::testing::matches_oracle;

TEST(Theorem1, Zoo) {
  for (const auto& [name, el] : logcc::testing::small_zoo()) {
    auto r = theorem1_cc(el);
    EXPECT_TRUE(matches_oracle(el, r.labels)) << name;
  }
}

TEST(Theorem1, SeedsAgreeOnPartition) {
  auto el = graph::make_gnm(300, 900, 17);
  Theorem1Params p;
  p.seed = 1;
  auto a = theorem1_cc(el, p);
  p.seed = 31337;
  auto b = theorem1_cc(el, p);
  EXPECT_TRUE(graph::same_partition(a.labels, b.labels));
}

TEST(Theorem1, DenseGraphSkipsPrepare) {
  auto el = graph::make_gnm(400, 26000, 3);  // m/n = 65 >= 64 target
  auto r = theorem1_cc(el);
  EXPECT_FALSE(r.stats.prepare_used);
  EXPECT_TRUE(matches_oracle(el, r.labels));
}

TEST(Theorem1, SparseGraphUsesPrepare) {
  auto el = graph::make_path(2000);
  auto r = theorem1_cc(el);
  EXPECT_TRUE(r.stats.prepare_used);
  EXPECT_TRUE(matches_oracle(el, r.labels));
}

TEST(Theorem1, FewPhasesOnDenseLowDiameter) {
  // m/n' large from the start: log log progress means a handful of phases.
  auto el = graph::make_gnm(256, 16384, 5);
  auto r = theorem1_cc(el);
  EXPECT_LE(r.stats.phases, 8u);
  EXPECT_FALSE(r.stats.finisher_used);
}

TEST(Theorem1, ExpandRoundsTrackLogDiameter) {
  // Inner expand rounds grow with log d (per phase).
  Theorem1Params p;
  p.prepare_target_density = 1.0;  // no PREPARE: keep the path intact
  auto short_d = theorem1_cc(graph::make_gnm(512, 4096, 3), p);
  auto long_d = theorem1_cc(graph::make_path(512), p);
  EXPECT_TRUE(matches_oracle(graph::make_path(512), long_d.labels));
  EXPECT_GT(long_d.stats.expand_rounds, short_d.stats.expand_rounds);
}

TEST(Theorem1, NTildeRuleStillCorrect) {
  Theorem1Params p;
  p.exact_count = false;  // §B.5 update rule instead of combining count
  for (const auto& [name, el] : logcc::testing::small_zoo()) {
    auto r = theorem1_cc(el, p);
    EXPECT_TRUE(matches_oracle(el, r.labels)) << name;
  }
}

TEST(Theorem1, ForcedFinisherStillCorrect) {
  Theorem1Params p;
  p.max_phases = 1;  // starve the randomized loop
  auto el = graph::make_path(300);
  auto r = theorem1_cc(el, p);
  EXPECT_TRUE(matches_oracle(el, r.labels));
}

TEST(Theorem1, SpaceLedgerLinearInM) {
  // Lemma 3.10 analogue: peak space stays within a constant factor of m.
  for (std::uint64_t n : {1000ULL, 4000ULL}) {
    auto el = graph::make_gnm(n, 8 * n, 7);
    auto r = theorem1_cc(el);
    EXPECT_LE(r.stats.peak_space_words, 64 * el.edges.size())
        << "n=" << n;
  }
}

TEST(Theorem1, StatsPopulated) {
  auto el = graph::make_gnm(200, 2000, 11);
  auto r = theorem1_cc(el);
  EXPECT_GT(r.stats.phases, 0u);
  EXPECT_GT(r.stats.pram_steps, 0u);
  EXPECT_GT(r.stats.peak_space_words, 0u);
}

TEST(Theorem1, HandlesEdgelessGraph) {
  graph::EdgeList el;
  el.n = 17;
  auto r = theorem1_cc(el);
  EXPECT_EQ(graph::count_components(r.labels), 17u);
  EXPECT_EQ(r.stats.phases, 0u);
}

}  // namespace
}  // namespace logcc::core
