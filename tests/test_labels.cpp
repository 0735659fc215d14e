#include "core/labels.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace logcc::core {
namespace {

TEST(ParentForest, StartsSelfLabeled) {
  ParentForest f(5);
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_TRUE(f.is_root(v));
    EXPECT_EQ(f.parent(v), v);
  }
  EXPECT_TRUE(f.all_flat());
  EXPECT_TRUE(f.acyclic());
}

TEST(ParentForest, ShortcutHalvesChain) {
  ParentForest f(8);
  for (VertexId v = 1; v < 8; ++v) f.set_parent(v, v - 1);
  EXPECT_FALSE(f.all_flat());
  EXPECT_TRUE(f.shortcut());
  // After one shortcut every vertex points at its grandparent.
  EXPECT_EQ(f.parent(7), 5u);
  EXPECT_EQ(f.parent(2), 0u);
}

TEST(ParentForest, FlattenMakesAllFlat) {
  ParentForest f(33);
  for (VertexId v = 1; v < 33; ++v) f.set_parent(v, v - 1);
  std::uint64_t steps = f.flatten();
  EXPECT_TRUE(f.all_flat());
  for (VertexId v = 0; v < 33; ++v) EXPECT_EQ(f.parent(v), 0u);
  EXPECT_LE(steps, 7u);  // ceil(log2 32) + 2
}

TEST(ParentForest, ShortcutIsSynchronous) {
  // p = [1 <- 2 <- 3]: synchronous shortcut must read old pointers.
  ParentForest f(4);
  f.set_parent(3, 2);
  f.set_parent(2, 1);
  f.set_parent(1, 0);
  f.shortcut();
  EXPECT_EQ(f.parent(3), 1u);  // old grandparent, not the new one
  EXPECT_EQ(f.parent(2), 0u);
  EXPECT_EQ(f.parent(1), 0u);
}

// core::shortcut_step is the one SHORTCUT step of every layer (the forest,
// the serving engine, StreamStats, the Liu–Tarjan lab).
template <typename V>
void expect_shortcut_step_contract() {
  // Chain 3 -> 2 -> 1 -> 0 takes two synchronous steps, not one: the first
  // reads only pre-step pointers, so 3 lands on 1, not on 0.
  std::vector<V> p{0, 0, 1, 2};
  std::vector<V> next;  // resized by the step
  EXPECT_TRUE(shortcut_step(p, next));
  EXPECT_EQ(p, (std::vector<V>{0, 0, 0, 1}));
  EXPECT_TRUE(shortcut_step(p, next));
  EXPECT_EQ(p, (std::vector<V>{0, 0, 0, 0}));
  EXPECT_FALSE(shortcut_step(p, next));  // flat: nothing moves
  EXPECT_EQ(p, (std::vector<V>{0, 0, 0, 0}));
  std::vector<V> empty;
  EXPECT_FALSE(shortcut_step(empty, next));

  // Above the serial grain, with several trees: every step gives the
  // arrays ParentForest::shortcut gives.
  const std::uint64_t n = 20000;
  std::vector<V> chain(n);
  BasicParentForest<V> forest(n);
  for (std::uint64_t v = 0; v < n; ++v) {
    const std::uint64_t parent = v % 1000 == 0 ? v : v - 1;
    chain[v] = static_cast<V>(parent);
    forest.set_parent(static_cast<V>(v), static_cast<V>(parent));
  }
  bool moved = true;
  while (moved) {
    moved = shortcut_step(chain, next);
    EXPECT_EQ(forest.shortcut(), moved);
    ASSERT_EQ(chain, forest.raw());
  }
  EXPECT_TRUE(forest.all_flat());
}

TEST(ShortcutStep, SynchronousAndMatchesParentForest) {
  expect_shortcut_step_contract<VertexId>();
}

TEST(ShortcutStep, WideMatchesParentForest64) {
  expect_shortcut_step_contract<VertexId64>();
}

TEST(ParentForest, FindRoot) {
  ParentForest f(6);
  f.set_parent(5, 4);
  f.set_parent(4, 3);
  f.set_parent(3, 3);
  EXPECT_EQ(f.find_root(5), 3u);
  EXPECT_EQ(f.find_root(0), 0u);
}

TEST(ParentForest, RootLabels) {
  ParentForest f(5);
  f.set_parent(1, 0);
  f.set_parent(2, 1);
  f.set_parent(4, 3);
  auto labels = f.root_labels();
  EXPECT_EQ(labels, (std::vector<VertexId>{0, 0, 0, 3, 3}));
}

TEST(ParentForest, AcyclicDetectsCycle) {
  ParentForest f(4);
  f.set_parent(0, 1);
  f.set_parent(1, 0);  // 2-cycle
  EXPECT_FALSE(f.acyclic());
}

TEST(ParentForest, AcyclicAcceptsDeepTree) {
  ParentForest f(100);
  for (VertexId v = 1; v < 100; ++v) f.set_parent(v, v / 2);
  EXPECT_TRUE(f.acyclic());
}

TEST(ParentForest, AcyclicDetectsLongCycle) {
  ParentForest f(10);
  for (VertexId v = 0; v < 5; ++v) f.set_parent(v, (v + 1) % 5);
  EXPECT_FALSE(f.acyclic());
}

TEST(LevelInvariant, HoldsAndBreaks) {
  ParentForest f(4);
  std::vector<std::uint32_t> level{1, 2, 3, 1};
  f.set_parent(0, 1);
  f.set_parent(1, 2);
  EXPECT_TRUE(level_invariant_holds(f, level));
  level[0] = 2;  // now equal to parent's level: violation
  EXPECT_FALSE(level_invariant_holds(f, level));
}

TEST(ParentForestDeath, FindRootOnCycleAborts) {
  ParentForest f(3);
  f.set_parent(0, 1);
  f.set_parent(1, 0);
  EXPECT_DEATH((void)f.find_root(0), "cycle");
}

}  // namespace
}  // namespace logcc::core
