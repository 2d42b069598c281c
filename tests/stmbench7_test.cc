// STMBench7-lite tests: construction, operation semantics, topology
// invariants under concurrent traffic for every synchronization scheme.
#include "src/workloads/stmbench7/stmbench7.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/htm/thread_state.h"
#include "src/locks/lock_factory.h"

namespace rwle {
namespace {

Stmbench7Config SmallConfig() {
  Stmbench7Config config;
  config.atomic_parts_per_composite = 8;
  config.composite_parts = 16;
  config.base_assemblies = 8;
  config.composites_per_base = 3;
  config.assembly_fanout = 2;
  config.assembly_levels = 3;
  return config;
}

TEST(Stmbench7Test, ConstructionBuildsValidTopology) {
  Stmbench7Db db(SmallConfig());
  EXPECT_EQ(db.composite_count(), 16u);
  EXPECT_EQ(db.base_count(), 8u);
  EXPECT_TRUE(db.CheckTopologyDirect());
}

TEST(Stmbench7Test, TraversalsAreDeterministicOnQuiescentData) {
  ScopedThreadSlot slot;
  Stmbench7Db db(SmallConfig());
  const std::uint64_t first = db.TraverseAtomicGraph(3);
  const std::uint64_t second = db.TraverseAtomicGraph(3);
  EXPECT_EQ(first, second);
  EXPECT_EQ(db.ShortTraversal(1), db.ShortTraversal(1));
  EXPECT_EQ(db.LongTraversal(), db.LongTraversal());
}

TEST(Stmbench7Test, UpdateAtomicDatesChangesTraversalChecksum) {
  ScopedThreadSlot slot;
  Stmbench7Db db(SmallConfig());
  const std::uint64_t before = db.TraverseAtomicGraph(2);
  db.UpdateAtomicDates(2);
  const std::uint64_t after = db.TraverseAtomicGraph(2);
  EXPECT_NE(before, after);
  EXPECT_TRUE(db.CheckTopologyDirect());
}

TEST(Stmbench7Test, SwapComponentsPreservesTopology) {
  ScopedThreadSlot slot;
  Stmbench7Db db(SmallConfig());
  db.SwapComponents(0, 0, 1, 1);
  db.SwapComponents(0, 0, 1, 1);  // swap back
  EXPECT_TRUE(db.CheckTopologyDirect());
}

TEST(Stmbench7Test, RewireChordStaysInComposite) {
  ScopedThreadSlot slot;
  Stmbench7Db db(SmallConfig());
  db.RewireChord(4, 0, 5);
  db.RewireChord(4, 3, 1);
  EXPECT_TRUE(db.CheckTopologyDirect());
}

TEST(Stmbench7Test, DocumentUpdatesBumpRevision) {
  ScopedThreadSlot slot;
  Stmbench7Db db(SmallConfig());
  db.UpdateDocument(1, 0xDEAD);
  db.UpdateDocument(1, 0xBEEF);
  // Two updates happened; traversals still fine.
  EXPECT_TRUE(db.CheckTopologyDirect());
}

class Stmbench7SchemeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(Stmbench7SchemeTest, ConcurrentMixKeepsTopologyIntact) {
  auto lock = MakeLock(GetParam());
  ASSERT_NE(lock, nullptr);
  Stmbench7Workload workload(SmallConfig());

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ScopedThreadSlot slot;
      Rng rng(500 + t);
      for (int i = 0; i < 150; ++i) {
        workload.Op(*lock, rng, rng.NextBool(0.4));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_TRUE(workload.db().CheckTopologyDirect());
  EXPECT_GE(lock->stats().Aggregate().TotalCommits(), kThreads * 150u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, Stmbench7SchemeTest,
                         ::testing::Values("rwle-opt", "rwle-pes", "hle", "brlock", "rwl",
                                           "sgl"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (auto& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace rwle
