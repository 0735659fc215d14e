// Property sweep: every algorithm × every graph family × several sizes and
// seeds must induce exactly the oracle partition. This is the library's main
// correctness safety net (hundreds of cases via TEST_P).
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/connectivity.hpp"
#include "graph/arcs_input.hpp"
#include "graph/binary_io.hpp"
#include "graph/generators.hpp"
#include "graph/graph_algos.hpp"
#include "test_support.hpp"

namespace logcc {
namespace {

using Param = std::tuple<std::string /*family*/, std::uint64_t /*n*/,
                         std::uint64_t /*seed*/, Algorithm>;

class CcProperty : public ::testing::TestWithParam<Param> {};

TEST_P(CcProperty, MatchesOracle) {
  const auto& [family, n, seed, algorithm] = GetParam();
  graph::EdgeList el = graph::make_family(family, n, seed);
  Options opt;
  opt.seed = seed * 7919 + 13;
  auto r = connected_components(graph::ArcsInput::from_edges(el), algorithm,
                                opt);
  EXPECT_TRUE(logcc::testing::matches_oracle(el, r.labels()))
      << family << " n=" << n << " seed=" << seed << " alg="
      << to_string(algorithm);
  EXPECT_EQ(r.num_components(),
            graph::count_components(logcc::testing::oracle_labels(el)));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CcProperty,
    ::testing::Combine(
        ::testing::Values("path", "cycle", "star", "grid", "tree", "gnm2",
                          "rmat", "caterpillar", "lollipop"),
        ::testing::Values<std::uint64_t>(33, 257),
        ::testing::Values<std::uint64_t>(1, 2, 3),
        ::testing::Values(Algorithm::kFasterCC, Algorithm::kTheorem1,
                          Algorithm::kVanilla, Algorithm::kShiloachVishkin,
                          Algorithm::kAwerbuchShiloach, Algorithm::kLabelProp,
                          Algorithm::kLiuTarjan, Algorithm::kUnionFind)),
    [](const ::testing::TestParamInfo<Param>& info) {
      std::string name = std::get<0>(info.param);
      name += "_n" + std::to_string(std::get<1>(info.param));
      name += "_s" + std::to_string(std::get<2>(info.param));
      name += std::string("_") + to_string(std::get<3>(info.param));
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

// CRCW-independence: the partition must not depend on the seed that drives
// every "arbitrary write wins" choice.
class CcSeedIndependence
    : public ::testing::TestWithParam<std::tuple<std::string, Algorithm>> {};

TEST_P(CcSeedIndependence, PartitionStableAcrossSeeds) {
  const auto& [family, algorithm] = GetParam();
  graph::EdgeList el = graph::make_family(family, 200, 4);
  const auto in = graph::ArcsInput::from_edges(el);
  Options opt;
  opt.seed = 1;
  auto ref = connected_components(in, algorithm, opt);
  for (std::uint64_t seed : {2ULL, 77ULL, 4099ULL}) {
    opt.seed = seed;
    auto r = connected_components(in, algorithm, opt);
    EXPECT_TRUE(graph::same_partition(ref.labels(), r.labels()))
        << family << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CcSeedIndependence,
    ::testing::Combine(::testing::Values("path", "gnm2", "rmat"),
                       ::testing::Values(Algorithm::kFasterCC,
                                         Algorithm::kTheorem1,
                                         Algorithm::kVanilla)));

// CSR-native determinism: for EVERY algorithm, running over a CSR-backed
// ArcsInput must produce labels bit-identical to the EdgeList path on the
// same canonical edge order, under every thread count (1/2/4/8). This is
// the zero-copy contract — arcs_from_input(csr) is elementwise
// arcs_from_input(edge_list_from_csr(csr)), so nothing downstream can
// diverge — pinned here as a label-fingerprint equality per thread count
// plus exact equality across thread counts.
class CsrNativeBitIdentity
    : public logcc::testing::ThreadInvariance,
      public ::testing::WithParamInterface<std::tuple<std::string, Algorithm>> {
};

TEST_P(CsrNativeBitIdentity, MatchesEdgeListPathAcrossThreadCounts) {
  const auto& [family, algorithm] = GetParam();
  const graph::EdgeList el = graph::make_family(family, 257, 9);
  const graph::Graph g = graph::Graph::from_edges(el, /*dedup=*/false);
  const graph::CsrView view = csr_view(g);
  const graph::ArcsInput csr_in = graph::ArcsInput::from_csr(view);
  const graph::EdgeList canon = graph::edge_list_from_csr(view);
  Options opt;
  opt.seed = 1303;

  std::vector<graph::VertexId> reference;
  for (int threads : {1, 2, 4, 8}) {
    util::set_parallelism(threads);
    const auto via_csr = connected_components(csr_in, algorithm, opt);
    const auto via_el = connected_components(canon, algorithm, opt);
    ASSERT_EQ(via_csr.labels(), via_el.labels())
        << family << " alg=" << to_string(algorithm) << " threads=" << threads
        << ": CSR-native labels diverge from the EdgeList path";
    if (reference.empty())
      reference = via_csr.labels();
    else
      ASSERT_EQ(via_csr.labels(), reference)
          << family << " alg=" << to_string(algorithm)
          << ": labels changed between thread counts (threads=" << threads
          << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CsrNativeBitIdentity,
    ::testing::Combine(
        ::testing::Values("path", "grid", "gnm2", "rmat", "lollipop"),
        ::testing::Values(Algorithm::kFasterCC, Algorithm::kTheorem1,
                          Algorithm::kVanilla, Algorithm::kShiloachVishkin,
                          Algorithm::kAwerbuchShiloach, Algorithm::kLabelProp,
                          Algorithm::kLiuTarjan, Algorithm::kUnionFind,
                          Algorithm::kBFS)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, Algorithm>>&
           info) {
      std::string name = std::get<0>(info.param);
      name += std::string("_") + to_string(std::get<1>(info.param));
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

}  // namespace
}  // namespace logcc
