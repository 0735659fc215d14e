// ComponentIndex: the canonical result-snapshot type (PR 7). Pins the
// invariants every producer relies on — min-id canonical labels, root-
// indexed sizes, exact component count — and
// the snapshot-immutability contract the serving layer's epoch swap is
// built on.
#include "core/component_index.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "core/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/graph_algos.hpp"
#include "test_support.hpp"
#include "util/epoch.hpp"

namespace logcc {
namespace {

using core::ComponentIndex;
using graph::VertexId;

// Structural invariants every index must satisfy, regardless of producer.
void expect_invariants(const ComponentIndex& ix) {
  const auto& labels = ix.labels();
  const auto& sizes = ix.sizes();
  ASSERT_EQ(sizes.size(), labels.size());
  std::uint64_t roots = 0, covered = 0;
  for (std::uint64_t v = 0; v < labels.size(); ++v) {
    ASSERT_LE(labels[v], v) << "labels not min-id canonical at " << v;
    ASSERT_EQ(labels[labels[v]], labels[v]) << "label chain not flat at " << v;
    if (labels[v] == v) {
      ++roots;
      ASSERT_GT(sizes[v], 0u) << "root " << v << " has zero size";
      covered += sizes[v];
    } else {
      ASSERT_EQ(sizes[v], 0u) << "non-root " << v << " has a size entry";
    }
    ASSERT_EQ(ix.component_of(v), labels[v]);
    ASSERT_EQ(ix.component_size(v), sizes[labels[v]]);
  }
  EXPECT_EQ(roots, ix.num_components());
  EXPECT_EQ(covered, ix.num_vertices());
}

TEST(ComponentIndex, CanonicalizesArbitraryLabels) {
  // Same-partition labels in non-canonical form: {9,9,3,3,9} -> {0,0,2,2,0}.
  ComponentIndex ix = ComponentIndex::from_labels({9, 9, 3, 3, 9});
  EXPECT_EQ(ix.num_vertices(), 5u);
  EXPECT_EQ(ix.num_components(), 2u);
  EXPECT_EQ(ix.labels(), (std::vector<VertexId>{0, 0, 2, 2, 0}));
  EXPECT_EQ(ix.component_size(0), 3u);
  EXPECT_EQ(ix.component_size(3), 2u);
  expect_invariants(ix);
}

TEST(ComponentIndex, FromCanonicalAgreesWithFromLabels) {
  auto el = graph::make_gnm(300, 700, 3);
  auto oracle = logcc::testing::oracle_labels(el);  // already min-id
  ComponentIndex a = ComponentIndex::from_labels(oracle);
  ComponentIndex b = ComponentIndex::from_canonical_labels(oracle);
  EXPECT_TRUE(a == b);
  expect_invariants(a);
}

TEST(ComponentIndexDeath, FromCanonicalRejectsNonCanonicalLabels) {
  // Partition-valid but not min-id (label 1 for a class containing 0).
  EXPECT_DEATH((void)ComponentIndex::from_canonical_labels({1, 1, 1}),
               "not min-id canonical");
}

TEST(ComponentIndex, InvariantsAcrossZooAndAllAlgorithms) {
  for (const auto& [name, el] : logcc::testing::small_zoo()) {
    const auto in = graph::ArcsInput::from_edges(el);
    for (auto alg : all_algorithms()) {
      auto r = connected_components(in, alg);
      SCOPED_TRACE(name + std::string(" alg=") + to_string(alg));
      expect_invariants(r.index);
      EXPECT_EQ(
          r.index.num_components(),
          graph::count_components(logcc::testing::oracle_labels(el)));
    }
  }
}

TEST(ComponentIndex, EmptyAndSingleton) {
  ComponentIndex empty;
  EXPECT_EQ(empty.num_vertices(), 0u);
  EXPECT_EQ(empty.num_components(), 0u);
  ComponentIndex one = ComponentIndex::from_labels({0});
  EXPECT_EQ(one.num_components(), 1u);
  EXPECT_EQ(one.component_size(0), 1u);
}

TEST(ComponentIndex, EqualityCoversLabelsSizesAndCount) {
  ComponentIndex a = ComponentIndex::from_labels({0, 0, 2, 2});
  ComponentIndex b = ComponentIndex::from_labels({0, 0, 2, 2});
  EXPECT_TRUE(a == b);
  ComponentIndex c = ComponentIndex::from_labels({0, 0, 0, 3});
  EXPECT_FALSE(a == c);
}

TEST(ComponentIndex, SnapshotImmutabilityAcrossEpochSwap) {
  // The serving-layer ownership rule: a reader holding a snapshot keeps a
  // consistent view no matter how many epochs the writer publishes after.
  util::EpochPtr<ComponentIndex> slot;
  slot.store(std::make_shared<const ComponentIndex>(
      ComponentIndex::from_labels({0, 0, 2, 2})));
  EXPECT_EQ(slot.epoch(), 1u);

  std::shared_ptr<const ComponentIndex> reader = slot.load();
  ASSERT_EQ(reader->num_components(), 2u);

  // Writer swaps in a merged epoch; the old snapshot must be untouched.
  slot.store(std::make_shared<const ComponentIndex>(
      ComponentIndex::from_labels({0, 0, 0, 0})));
  EXPECT_EQ(slot.epoch(), 2u);
  EXPECT_EQ(reader->num_components(), 2u);
  EXPECT_EQ(reader->component_of(2), 2u);
  EXPECT_EQ(slot.load()->num_components(), 1u);
  // The superseded epoch stays alive exactly as long as the reader does.
  EXPECT_EQ(reader.use_count(), 1);
}

}  // namespace
}  // namespace logcc
