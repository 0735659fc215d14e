#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph_algos.hpp"
#include "mpc/engine.hpp"
#include "mpc/mpc_cc.hpp"
#include "test_support.hpp"

namespace logcc::mpc {
namespace {

using logcc::testing::matches_oracle;
using logcc::testing::ThreadInvariance;

TEST(MpcEngine, ChargesRoundsPerPrimitive) {
  MpcConfig cfg;
  cfg.n = 1024;
  MpcEngine engine(cfg);
  std::vector<int> xs{3, 1, 2};
  engine.sort(xs, std::less<int>());
  EXPECT_EQ(engine.ledger().rounds, 1u);
  EXPECT_TRUE(std::is_sorted(xs.begin(), xs.end()));
  engine.dedup(xs);
  engine.broadcast();
  EXPECT_EQ(engine.ledger().rounds, 3u);
  EXPECT_EQ(engine.ledger().primitive_calls, 3u);
}

TEST(MpcEngine, PrefixSumExclusive) {
  MpcConfig cfg;
  cfg.n = 16;
  MpcEngine engine(cfg);
  auto out = engine.prefix_sum({1, 2, 3, 4});
  EXPECT_EQ(out, (std::vector<std::uint64_t>{0, 1, 3, 6}));
  EXPECT_EQ(engine.ledger().rounds, 1u);
}

TEST(MpcEngine, MachineMemoryIsNPowEpsilon) {
  MpcConfig cfg;
  cfg.n = 1 << 20;
  cfg.epsilon = 0.5;
  MpcEngine engine(cfg);
  EXPECT_EQ(engine.machine_memory(), 1u << 10);
}

TEST(MpcEngine, CustomRoundPrice) {
  MpcConfig cfg;
  cfg.n = 64;
  cfg.rounds_per_primitive = 3;
  MpcEngine engine(cfg);
  engine.broadcast();
  EXPECT_EQ(engine.ledger().rounds, 3u);
}

TEST(MpcVanilla, Zoo) {
  for (const auto& [name, el] : logcc::testing::small_zoo()) {
    auto r = mpc_vanilla_cc(el, 5);
    EXPECT_TRUE(matches_oracle(el, r.labels)) << name;
  }
}

TEST(MpcVanilla, LogNPhases) {
  auto r = mpc_vanilla_cc(graph::make_path(4096), 7);
  EXPECT_LE(r.phases, 50u);
  EXPECT_GE(r.phases, 6u);
}

TEST(MpcLogDiameter, Zoo) {
  for (const auto& [name, el] : logcc::testing::small_zoo()) {
    auto r = mpc_log_diameter_cc(el, 5);
    EXPECT_TRUE(matches_oracle(el, r.labels)) << name;
  }
}

TEST(MpcLogDiameter, SeedsAgree) {
  auto el = graph::make_gnm(300, 900, 3);
  auto a = mpc_log_diameter_cc(el, 1);
  auto b = mpc_log_diameter_cc(el, 999);
  EXPECT_TRUE(graph::same_partition(a.labels, b.labels));
}

TEST(MpcLogDiameter, FewerPhasesThanVanillaOnDenseGraphs) {
  // The double-exponential budget: log log phases vs vanilla's log n.
  auto el = graph::make_gnm(2048, 16384, 11);
  auto fast = mpc_log_diameter_cc(el, 3);
  auto vanilla = mpc_vanilla_cc(el, 3);
  EXPECT_LT(fast.phases, vanilla.phases);
  EXPECT_LE(fast.phases, 8u);
}

TEST(MpcLogDiameter, ExpandStepsTrackLogDiameter) {
  auto path = mpc_log_diameter_cc(graph::make_path(1024), 5);
  auto star = mpc_log_diameter_cc(graph::make_star(1024), 5);
  EXPECT_GT(path.expand_steps, star.expand_steps);
}

TEST(MpcLogDiameter, MixedComponents) {
  auto el = graph::disjoint_union({graph::make_path(100),
                                   graph::make_complete(16),
                                   graph::make_gnm(200, 600, 2)});
  auto r = mpc_log_diameter_cc(el, 9);
  EXPECT_TRUE(matches_oracle(el, r.labels));
}

TEST(MpcLogDiameter, RoundLedgerPopulated) {
  auto r = mpc_log_diameter_cc(graph::make_gnm(256, 1024, 1), 1);
  EXPECT_GT(r.ledger.rounds, 0u);
  EXPECT_GT(r.ledger.primitive_calls, 0u);
  EXPECT_GT(r.ledger.peak_words, 0u);
}

// Both simulations flatten their parent map through ParentForest's
// parallel SHORTCUT steps; labels, phases, squaring steps and the whole
// ledger must not depend on the lane count. The sparse gnm has 20,000
// vertices, above the largest serial grain, so its flattens really split.
TEST_F(ThreadInvariance, MpcResultsIdenticalAcrossThreads) {
  const std::vector<graph::EdgeList> graphs{
      graph::make_gnm(20000, 8000, 5), graph::make_path(1000),
      graph::disjoint_union(
          {graph::make_grid(20, 20), graph::make_rmat(10, 4096, 3)})};
  for (auto* run : {&mpc_vanilla_cc, &mpc_log_diameter_cc}) {
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      std::optional<MpcCcResult> reference;
      for (int threads : {1, 2, 8}) {
        util::set_parallelism(threads);
        MpcCcResult r = (*run)(graphs[g], 7, MpcConfig{});
        ASSERT_TRUE(matches_oracle(graphs[g], r.labels)) << "graph " << g;
        if (!reference) {
          reference = std::move(r);
          continue;
        }
        const std::string where =
            "graph " + std::to_string(g) + " threads " + std::to_string(threads);
        EXPECT_EQ(r.labels, reference->labels) << where;
        EXPECT_EQ(r.phases, reference->phases) << where;
        EXPECT_EQ(r.expand_steps, reference->expand_steps) << where;
        EXPECT_EQ(r.ledger.rounds, reference->ledger.rounds) << where;
        EXPECT_EQ(r.ledger.primitive_calls, reference->ledger.primitive_calls)
            << where;
        EXPECT_EQ(r.ledger.peak_words, reference->ledger.peak_words) << where;
        EXPECT_EQ(r.ledger.memory_exceeded, reference->ledger.memory_exceeded)
            << where;
      }
    }
  }
}

}  // namespace
}  // namespace logcc::mpc
