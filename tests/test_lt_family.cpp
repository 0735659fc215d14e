#include "baselines/lt_family.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/graph_algos.hpp"
#include "test_support.hpp"

namespace logcc::baselines {
namespace {

using logcc::testing::matches_oracle;

TEST(LtFamily, VariantNames) {
  LtVariant v;
  v.connect = LtConnect::kExtended;
  v.shortcut = LtShortcut::kFull;
  v.alter = false;
  EXPECT_EQ(v.name(), "E-F");
  v.connect = LtConnect::kDirect;
  v.shortcut = LtShortcut::kSingle;
  v.alter = true;
  EXPECT_EQ(v.name(), "D-S-A");
}

TEST(LtFamily, TenCorrectVariants) {
  auto all = lt_all_variants();
  EXPECT_EQ(all.size(), 10u);
  std::set<std::string> names;
  for (const auto& v : all) {
    names.insert(v.name());
    EXPECT_FALSE(v.connect == LtConnect::kDirect && !v.alter) << v.name();
  }
  EXPECT_EQ(names.size(), 10u);
}

TEST(LtFamily, DirectWithoutAlterCanStall) {
  // LT'19 negative result: with direct-connect and no ALTER, a cross edge
  // between two non-roots never triggers a connect. Square: 2 adopts 0,
  // 3 adopts 1 in the same synchronous round; edge {2,3} then joins two
  // non-roots and the algorithm reaches a flat fixpoint with 2 components
  // instead of 1.
  graph::EdgeList el;
  el.n = 4;
  el.add(0, 2);
  el.add(1, 3);
  el.add(2, 3);
  for (const LtVariant& v : lt_incorrect_variants()) {
    auto r = liu_tarjan_variant(el, v);
    EXPECT_EQ(graph::count_components(r.labels), 2u)
        << v.name() << " unexpectedly solved the stall instance";
  }
  // Adding ALTER fixes it.
  LtVariant fixed{LtConnect::kDirect, LtShortcut::kSingle, true};
  auto r = liu_tarjan_variant(el, fixed);
  EXPECT_EQ(graph::count_components(r.labels), 1u);
}

TEST(LtFamily, AllVariantsCorrectOnZoo) {
  for (const auto& [gname, el] : logcc::testing::small_zoo()) {
    for (const LtVariant& v : lt_all_variants()) {
      auto r = liu_tarjan_variant(el, v);
      EXPECT_TRUE(matches_oracle(el, r.labels)) << v.name() << " on " << gname;
    }
  }
}

TEST(LtFamily, ExtendedBeatsParentBeatsDirectOnPaths) {
  auto el = graph::make_path(2048);
  LtVariant d{LtConnect::kDirect, LtShortcut::kSingle, true};
  LtVariant p{LtConnect::kParent, LtShortcut::kSingle, true};
  LtVariant e{LtConnect::kExtended, LtShortcut::kSingle, true};
  auto rd = liu_tarjan_variant(el, d);
  auto rp = liu_tarjan_variant(el, p);
  auto re = liu_tarjan_variant(el, e);
  EXPECT_LE(re.stats.rounds, rp.stats.rounds);
  EXPECT_LE(rp.stats.rounds, rd.stats.rounds);
}

TEST(LtFamily, FullShortcutWithinConstantFactor) {
  // "-F" rounds include every inner SHORTCUT step, so F trades fewer outer
  // iterations for flatten work; totals stay within a constant factor of
  // the "-S" variant.
  for (const char* family : {"path", "gnm2", "caterpillar"}) {
    auto el = graph::make_family(family, 512, 3);
    for (LtConnect c :
         {LtConnect::kDirect, LtConnect::kParent, LtConnect::kExtended}) {
      auto rs = liu_tarjan_variant(el, {c, LtShortcut::kSingle, true});
      auto rf = liu_tarjan_variant(el, {c, LtShortcut::kFull, true});
      EXPECT_LE(rf.stats.rounds, 2 * rs.stats.rounds + 16) << family;
      EXPECT_GE(rf.stats.rounds, 1u) << family;
    }
  }
}

TEST(LtFamily, LogarithmicRoundsWithAlter) {
  auto el = graph::make_path(4096);
  LtVariant v{LtConnect::kParent, LtShortcut::kSingle, true};
  auto r = liu_tarjan_variant(el, v);
  // LT19: these variants are O(log^2 n) worst case, O(log n) in practice.
  EXPECT_LE(r.stats.rounds, 150u);
}

TEST(LtFamily, MonotoneLabels) {
  // Labels never increase between rounds — verified indirectly: final
  // labels are minima of their components.
  auto el = graph::make_gnm(200, 500, 9);
  for (const LtVariant& v : lt_all_variants()) {
    auto r = liu_tarjan_variant(el, v);
    auto canon = graph::canonical_labels(r.labels);
    EXPECT_EQ(r.labels, canon) << v.name() << ": labels not min-canonical";
  }
}

TEST(LtFamily, HandlesLoopsAndParallelEdges) {
  graph::EdgeList el;
  el.n = 5;
  el.add(0, 0);
  el.add(1, 2);
  el.add(2, 1);
  el.add(3, 4);
  for (const LtVariant& v : lt_all_variants()) {
    auto r = liu_tarjan_variant(el, v);
    EXPECT_TRUE(matches_oracle(el, r.labels)) << v.name();
  }
}

}  // namespace
}  // namespace logcc::baselines
