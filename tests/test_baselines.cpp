#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "baselines/awerbuch_shiloach.hpp"
#include "baselines/bfs_cc.hpp"
#include "baselines/label_propagation.hpp"
#include "baselines/lt_family.hpp"
#include "baselines/shiloach_vishkin.hpp"
#include "baselines/union_find.hpp"
#include "graph/generators.hpp"
#include "graph/graph_algos.hpp"
#include "test_support.hpp"
#include "util/parallel.hpp"

namespace logcc::baselines {
namespace {

using logcc::testing::matches_oracle;

using CcFn = core::CcResult (*)(const graph::ArcsInput&);

struct Named {
  const char* name;
  CcFn fn;
};

const Named kAll[] = {
    {"shiloach-vishkin", shiloach_vishkin},
    {"awerbuch-shiloach", awerbuch_shiloach},
    {"label-propagation", label_propagation},
    {"liu-tarjan", liu_tarjan},
    {"union-find", union_find_cc},
    {"bfs", bfs_cc},
};

TEST(Baselines, AllCorrectOnZoo) {
  for (const auto& [gname, el] : logcc::testing::small_zoo()) {
    for (const Named& alg : kAll) {
      auto r = alg.fn(el);
      EXPECT_TRUE(matches_oracle(el, r.labels)) << alg.name << " on " << gname;
    }
  }
}

TEST(Baselines, AllAgreePairwise) {
  auto el = graph::make_gnm(200, 420, 77);
  auto ref = bfs_cc(el);
  for (const Named& alg : kAll) {
    auto r = alg.fn(el);
    EXPECT_TRUE(graph::same_partition(ref.labels, r.labels)) << alg.name;
  }
}

TEST(ShiloachVishkin, LogRounds) {
  auto r = shiloach_vishkin(graph::make_path(4096));
  EXPECT_LE(r.stats.rounds, 30u);  // ~log2(4096)=12 with constant slack
  EXPECT_GE(r.stats.rounds, 4u);
}

TEST(AwerbuchShiloach, LogRounds) {
  // Synchronous AS has a larger constant than SV (stars must re-form
  // between hooks); check the growth is logarithmic, not the constant.
  auto small = awerbuch_shiloach(graph::make_path(256));
  auto big = awerbuch_shiloach(graph::make_path(4096));
  EXPECT_GE(big.stats.rounds, 4u);
  EXPECT_LE(big.stats.rounds, 8 * 12 + 8u);
  // Growing n by 16x (log2: 8 -> 12) must scale rounds like the log ratio
  // (~1.5x, slack to 2.8x), ruling out polynomial growth (16x).
  EXPECT_LE(big.stats.rounds * 10, small.stats.rounds * 28);
}

TEST(LabelPropagation, ThetaDiameterRounds) {
  auto path = label_propagation(graph::make_path(200));
  // Min label spreads one hop per round: rounds ≈ d.
  EXPECT_GE(path.stats.rounds, 150u);
  EXPECT_LE(path.stats.rounds, 220u);
  auto star = label_propagation(graph::make_star(200));
  EXPECT_LE(star.stats.rounds, 4u);
}

TEST(LiuTarjan, FasterThanLabelPropOnPaths) {
  auto lt = liu_tarjan(graph::make_path(512));
  auto lp = label_propagation(graph::make_path(512));
  EXPECT_LT(lt.stats.rounds, lp.stats.rounds / 4);
}

TEST(UnionFind, DisjointSetsBasics) {
  DisjointSets ds(6);
  EXPECT_EQ(ds.num_sets(), 6u);
  EXPECT_TRUE(ds.unite(0, 1));
  EXPECT_FALSE(ds.unite(1, 0));
  EXPECT_TRUE(ds.unite(2, 3));
  EXPECT_TRUE(ds.unite(0, 3));
  EXPECT_EQ(ds.num_sets(), 3u);
  EXPECT_EQ(ds.find(1), ds.find(2));
  EXPECT_NE(ds.find(4), ds.find(5));
}

TEST(UnionFind, PathSplittingKeepsRootsStable) {
  DisjointSets ds(100);
  for (graph::VertexId v = 1; v < 100; ++v) ds.unite(v - 1, v);
  graph::VertexId root = ds.find(0);
  for (graph::VertexId v = 0; v < 100; ++v) EXPECT_EQ(ds.find(v), root);
  EXPECT_EQ(ds.num_sets(), 1u);
}

TEST(Baselines, DeterministicAlgorithmsAreDeterministic) {
  auto el = graph::make_gnm(100, 250, 31);
  for (const Named& alg : kAll) {
    auto a = alg.fn(el);
    auto b = alg.fn(el);
    EXPECT_EQ(a.labels, b.labels) << alg.name;
    EXPECT_EQ(a.stats.rounds, b.stats.rounds) << alg.name;
  }
}

using logcc::testing::ThreadInvariance;

// SV's and AS's SHORTCUT and the LT lab's connect, shortcut and ALTER
// dispatch on the pool; 20,000 vertices put those passes above the serial
// grain, so every lane count really splits the work.
TEST_F(ThreadInvariance, RoundLoopBaselinesIdentical) {
  auto el = graph::make_gnm(20000, 40000, 41);
  auto run_all = [&] {
    std::vector<std::pair<std::string, core::CcResult>> out;
    out.emplace_back("shiloach-vishkin", shiloach_vishkin(el));
    out.emplace_back("awerbuch-shiloach", awerbuch_shiloach(el));
    for (const LtVariant& v : lt_all_variants())
      out.emplace_back("lt " + v.name(), liu_tarjan_variant(el, v));
    return out;
  };
  util::set_parallelism(1);
  const auto ref = run_all();
  for (const auto& [name, r] : ref)
    ASSERT_TRUE(matches_oracle(el, r.labels)) << name;
  for (int threads : {2, 4, 8}) {
    util::set_parallelism(threads);
    const auto got = run_all();
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i].second.labels, ref[i].second.labels)
          << ref[i].first << " threads=" << threads;
      EXPECT_EQ(got[i].second.stats.rounds, ref[i].second.stats.rounds)
          << ref[i].first << " threads=" << threads;
    }
  }
}

TEST(AwerbuchShiloach, StarDetectionRegressionSweep) {
  // Companion to SvOnPram.RegressionArbitrarySeed999NoCycle: the same
  // star-detection bug lived here. Dense-ish random graphs across seeds
  // exercise deep temporary trees whose mis-classification caused cycles.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    auto el = graph::make_gnm(400, 1600, seed * 101);
    auto r = awerbuch_shiloach(el);
    EXPECT_TRUE(matches_oracle(el, r.labels)) << seed;
  }
}

TEST(Baselines, HandleParallelEdgesAndLoops) {
  graph::EdgeList el;
  el.n = 4;
  el.add(0, 1);
  el.add(1, 0);
  el.add(1, 1);
  el.add(2, 3);
  el.add(2, 3);
  for (const Named& alg : kAll) {
    auto r = alg.fn(el);
    EXPECT_TRUE(matches_oracle(el, r.labels)) << alg.name;
  }
}

}  // namespace
}  // namespace logcc::baselines
