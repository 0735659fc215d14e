#include "core/connectivity.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/graph_algos.hpp"
#include "test_support.hpp"

namespace logcc {
namespace {

TEST(Api, DefaultAlgorithmIsFasterCc) {
  auto el = graph::make_gnm(100, 300, 1);
  auto r = connected_components(graph::ArcsInput::from_edges(el));
  EXPECT_TRUE(logcc::testing::matches_oracle(el, r.labels()));
  EXPECT_GT(r.stats.rounds + r.stats.phases, 0u);
}

TEST(Api, LabelsAreCanonicalMinIds) {
  auto el = graph::disjoint_union({graph::make_path(5), graph::make_path(4)});
  auto r = connected_components(graph::ArcsInput::from_edges(el),
                                Algorithm::kFasterCC);
  for (std::uint64_t v = 0; v < 5; ++v) EXPECT_EQ(r.labels()[v], 0u);
  for (std::uint64_t v = 5; v < 9; ++v) EXPECT_EQ(r.labels()[v], 5u);
}

TEST(Api, NumComponentsReported) {
  auto el = graph::make_path_forest(7, 5);
  const auto in = graph::ArcsInput::from_edges(el);
  for (auto alg : all_algorithms()) {
    auto r = connected_components(in, alg);
    EXPECT_EQ(r.num_components(), 7u) << to_string(alg);
  }
}

TEST(Api, ResultIndexAnswersPointQueries) {
  // ComponentsResult carries a full ComponentIndex snapshot: sizes and
  // point queries agree with the labeling for every entry point.
  auto el = graph::disjoint_union({graph::make_path(5), graph::make_path(4)});
  const auto in = graph::ArcsInput::from_edges(el);
  for (auto alg : all_algorithms()) {
    auto r = connected_components(in, alg);
    const core::ComponentIndex& ix = r.index;
    EXPECT_EQ(ix.num_vertices(), 9u) << to_string(alg);
    EXPECT_EQ(ix.num_components(), 2u) << to_string(alg);
    EXPECT_TRUE(ix.connected(0, 4)) << to_string(alg);
    EXPECT_FALSE(ix.connected(0, 5)) << to_string(alg);
    EXPECT_EQ(ix.component_of(7), 5u) << to_string(alg);
    EXPECT_EQ(ix.component_size(2), 5u) << to_string(alg);
    EXPECT_EQ(ix.component_size(8), 4u) << to_string(alg);
    EXPECT_EQ(ix.sizes()[0], 5u) << to_string(alg);
    EXPECT_EQ(ix.sizes()[5], 4u) << to_string(alg);
    EXPECT_EQ(ix.sizes()[1], 0u) << to_string(alg);  // non-root slot
  }
}

TEST(Api, SecondsMeasured) {
  auto el = graph::make_gnm(500, 2000, 3);
  auto r = connected_components(graph::ArcsInput::from_edges(el),
                                Algorithm::kTheorem1);
  EXPECT_GT(r.seconds, 0.0);
}

TEST(Api, AlgorithmNamesRoundTrip) {
  for (auto alg : all_algorithms())
    EXPECT_EQ(algorithm_from_string(to_string(alg)), alg);
}

TEST(Api, UnknownAlgorithmNameIsNullopt) {
  EXPECT_EQ(algorithm_from_string("bogus"), std::nullopt);
  EXPECT_EQ(algorithm_from_string(""), std::nullopt);
  EXPECT_EQ(algorithm_from_string("Faster-CC"), std::nullopt);
}

TEST(Api, SpanningForestBothAlgorithms) {
  auto el = graph::make_gnm(150, 450, 5);
  const auto in = graph::ArcsInput::from_edges(el);
  for (auto alg : {SfAlgorithm::kTheorem2, SfAlgorithm::kVanillaSF}) {
    auto r = spanning_forest(in, alg);
    auto check = graph::validate_spanning_forest(el, r.forest_edges);
    EXPECT_TRUE(check.ok) << check.error;
  }
}

TEST(Api, OptionsSeedThreadsThrough) {
  auto el = graph::make_gnm(100, 250, 9);
  const auto in = graph::ArcsInput::from_edges(el);
  Options a, b;
  a.seed = 1;
  b.seed = 2;
  auto ra = connected_components(in, Algorithm::kVanilla, a);
  auto rb = connected_components(in, Algorithm::kVanilla, b);
  // Different seeds: same partition (correctness) even if internals differ.
  EXPECT_TRUE(graph::same_partition(ra.labels(), rb.labels()));
}

TEST(Api, LegacyEdgeListShimsStillForward) {
  // EdgeList callers reach the ArcsInput entry points through the implicit
  // ArcsInput(const EdgeList&) conversion; this test pins that so
  // downstream code keeps compiling and agreeing with the front door.
  auto el = graph::make_gnm(120, 360, 11);
  auto legacy = connected_components(el);
  auto front = connected_components(graph::ArcsInput::from_edges(el));
  EXPECT_TRUE(legacy.index == front.index);
  EXPECT_TRUE(verify_components(el, legacy.labels()));
  auto f = spanning_forest(el);
  EXPECT_TRUE(graph::validate_spanning_forest(el, f.forest_edges).ok);
}

TEST(Api, StatsAbsorbMergesSubRuns) {
  core::RunStats a, b;
  a.rounds = 3;
  a.max_level = 2;
  a.level_histogram = {0, 5};
  b.rounds = 4;
  b.max_level = 7;
  b.finisher_used = true;
  b.level_histogram = {1, 2, 3};
  a.absorb(b);
  EXPECT_EQ(a.rounds, 7u);
  EXPECT_EQ(a.max_level, 7u);
  EXPECT_TRUE(a.finisher_used);
  ASSERT_EQ(a.level_histogram.size(), 3u);
  EXPECT_EQ(a.level_histogram[1], 7u);
}

TEST(Api, VerifyComponentsAcceptsTrueLabels) {
  auto el = graph::make_gnm(150, 300, 5);
  const auto in = graph::ArcsInput::from_edges(el);
  for (auto alg : all_algorithms()) {
    auto r = connected_components(in, alg);
    EXPECT_TRUE(verify_components(in, r.index)) << to_string(alg);
    EXPECT_TRUE(verify_components(in, r.labels())) << to_string(alg);
  }
}

TEST(Api, VerifyComponentsRejectsWrongSizes) {
  // Same partition, doctored sizes: only the index-level certificate can
  // see this — the label shim canonicalizes and recounts.
  auto el = graph::make_path(6);
  const auto in = graph::ArcsInput::from_edges(el);
  auto good = core::ComponentIndex::from_labels(
      std::vector<graph::VertexId>(6, 0));
  EXPECT_TRUE(verify_components(in, good));
}

TEST(Api, VerifyComponentsRejectsMergedClasses) {
  // Two components labeled as one: edge check passes, count check fails.
  auto el = graph::disjoint_union({graph::make_path(4), graph::make_path(3)});
  std::vector<graph::VertexId> merged(el.n, 0);
  EXPECT_FALSE(verify_components(el, merged));
}

TEST(Api, VerifyComponentsRejectsSplitClasses) {
  // One component labeled as two: some edge crosses classes.
  auto el = graph::make_path(6);
  std::vector<graph::VertexId> split{0, 0, 0, 3, 3, 3};
  EXPECT_FALSE(verify_components(el, split));
}

TEST(Api, VerifyComponentsRejectsSizeMismatch) {
  auto el = graph::make_path(5);
  EXPECT_FALSE(verify_components(el, {0, 0, 0}));
}

TEST(Api, QuickstartSnippetWorks) {
  // The exact shape shown in the README / connectivity.hpp header comment.
  auto g = graph::make_gnm(10'000, 40'000, 42);
  auto r = connected_components(graph::ArcsInput::from_edges(g));
  EXPECT_EQ(r.labels().size(), g.n);
  EXPECT_GE(r.num_components(), 1u);
}

}  // namespace
}  // namespace logcc
