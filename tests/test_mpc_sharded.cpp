// Sharded MPC executor: semantics are a property of the graph, never the
// partitioning. Labels must equal the canonical min-id oracle; supersteps
// AND the charged engine ledger must be identical across shard counts; only
// cross-shard message volume may (and must, on connected inputs) grow.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "baselines/union_find.hpp"
#include "graph/binary_io.hpp"
#include "graph/generators.hpp"
#include "mpc/sharded.hpp"
#include "test_support.hpp"

namespace logcc {
namespace {

std::vector<graph::VertexId64> oracle_labels(const graph::EdgeList& el) {
  std::vector<graph::Edge64> wide(el.edges.size());
  for (std::size_t i = 0; i < wide.size(); ++i)
    wide[i] = {el.edges[i].u, el.edges[i].v};
  return baselines::union_find_cc(graph::ArcsInput64::from_edges(el.n, wide))
      .labels;
}

TEST(MpcSharded, MatchesCanonicalOracleAcrossFamilies) {
  for (const std::string& family : graph::family_names()) {
    const graph::EdgeList el = graph::make_family(family, 300, 7);
    const auto oracle = oracle_labels(el);
    mpc::ShardedMpcOptions opt;
    opt.shards = 4;
    const auto r = mpc::sharded_mpc_cc(el, opt);
    EXPECT_EQ(r.labels, oracle) << family;
    EXPECT_GT(r.ledger.rounds, 0u) << family;
  }
}

TEST(MpcSharded, LabelsAndChargedRoundsAreShardCountInvariant) {
  struct W {
    std::string name;
    graph::EdgeList el;
  };
  std::vector<W> ws;
  ws.push_back({"path", graph::make_path(700)});
  ws.push_back({"gnm", graph::make_gnm(512, 2048, 3)});
  ws.push_back({"rmat", graph::make_rmat(9, 2048, 5)});
  ws.push_back({"two-comp", graph::make_path_forest(2, 200)});
  ws.push_back({"empty-edges", graph::EdgeList{.n = 97, .edges = {}}});

  for (const W& w : ws) {
    const auto oracle = oracle_labels(w.el);
    std::vector<graph::VertexId64> base_labels;
    std::uint64_t base_rounds = 0, base_ledger = 0, base_calls = 0;
    std::uint64_t prev_messages = 0;
    for (std::uint32_t shards : {1u, 2u, 4u, 8u}) {
      mpc::ShardedMpcOptions opt;
      opt.shards = shards;
      const auto r = mpc::sharded_mpc_cc(w.el, opt);
      EXPECT_EQ(r.labels, oracle) << w.name << " shards=" << shards;
      if (shards == 1) {
        base_labels = r.labels;
        base_rounds = r.rounds;
        base_ledger = r.ledger.rounds;
        base_calls = r.ledger.primitive_calls;
        EXPECT_EQ(r.cross_shard_messages, 0u) << w.name;
      } else {
        EXPECT_EQ(r.labels, base_labels) << w.name << " shards=" << shards;
        EXPECT_EQ(r.rounds, base_rounds)
            << w.name << " shards=" << shards << ": supersteps vary";
        EXPECT_EQ(r.ledger.rounds, base_ledger)
            << w.name << " shards=" << shards << ": charged rounds vary";
        EXPECT_EQ(r.ledger.primitive_calls, base_calls)
            << w.name << " shards=" << shards << ": primitive count varies";
        EXPECT_GE(r.cross_shard_messages, prev_messages)
            << w.name << " shards=" << shards;
      }
      prev_messages = r.cross_shard_messages;
    }
  }
}

TEST(MpcSharded, CsrBackedInputShardsZeroCopyThroughLogccsr2) {
  // End to end: stream a family to LOGCCSR2, mmap it, shard the CSR rows
  // in place, and match both the oracle and the edge-backed run.
  const std::string path = ::testing::TempDir() + "/sharded_csr.logccsr";
  std::string error;
  ASSERT_TRUE(graph::stream_family_to_binary(
      "grid", 400, 1, path, &error, graph::BinaryCsrFormat::kWide))
      << error;
  graph::DatasetHandle handle;
  ASSERT_TRUE(graph::load_dataset_zero_copy(path, handle, &error)) << error;
  ASSERT_TRUE(handle.wide());
  ASSERT_TRUE(handle.input64().csr_backed());

  const graph::EdgeList el = graph::make_family("grid", 400, 1);
  mpc::ShardedMpcOptions opt;
  opt.shards = 4;
  const auto from_csr = mpc::sharded_mpc_cc(handle.input64(), opt);
  const auto from_edges = mpc::sharded_mpc_cc(el, opt);
  EXPECT_EQ(from_csr.labels, from_edges.labels);
  EXPECT_EQ(from_csr.rounds, from_edges.rounds);
  EXPECT_EQ(from_csr.labels, oracle_labels(el));
  std::remove(path.c_str());
}

TEST(MpcSharded, DegenerateInputs) {
  {
    graph::EdgeList empty;
    empty.n = 0;
    const auto r = mpc::sharded_mpc_cc(empty);
    EXPECT_TRUE(r.labels.empty());
  }
  {
    graph::EdgeList single;
    single.n = 1;
    const auto r = mpc::sharded_mpc_cc(single);
    ASSERT_EQ(r.labels.size(), 1u);
    EXPECT_EQ(r.labels[0], 0u);
  }
  {
    // Self-loops and parallel edges.
    graph::EdgeList el;
    el.n = 4;
    el.add(0, 0);
    el.add(1, 2);
    el.add(2, 1);
    el.add(3, 3);
    mpc::ShardedMpcOptions opt;
    opt.shards = 8;  // more shards than meaningfully fit n=4: clamped
    const auto r = mpc::sharded_mpc_cc(el, opt);
    EXPECT_EQ(r.labels, oracle_labels(el));
    EXPECT_LE(r.shards_used, 4u);
  }
}

}  // namespace
}  // namespace logcc
