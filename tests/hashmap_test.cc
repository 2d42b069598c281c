// TxHashMap unit tests plus cross-scheme integration/property tests: under
// every synchronization scheme, concurrent traffic must conserve the map's
// structural invariants and readers must see consistent states.
#include "src/workloads/hashmap/tx_hashmap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_registry.h"
#include "src/locks/lock_factory.h"
#include "src/workloads/hashmap/hashmap_workload.h"
#include "tests/resident_set.h"

namespace rwle {
namespace {

std::uintptr_t Address(const TxHashMap::Node* node) {
  return reinterpret_cast<std::uintptr_t>(node);
}

// Node memory: every node comes from the process-wide type-stable slabs
// (node_slabs.h). These tests run first in this binary, and every other
// test returns all of its nodes, so each starts on a pool with no node in
// use.

// Populating read_mostly's table (8192 buckets x 24 nodes) keeps one
// 128-B block resident per node plus a slab header every 2048 blocks:
// 24.3 MiB of nodes and 1 MiB of buckets. A 256-B allocator stride, as
// glibc's aligned new gives, doubles it.
TEST(NodeSlabsTest, PopulatedTableStaysNearOneLinePerNode) {
#if defined(__linux__) && !defined(RWLE_RSS_IS_INSTRUMENTED)
  if (HtmRuntime::Global().analysis_observer() != nullptr) {
    GTEST_SKIP() << "txsan's shadow state grows with every cell it observes";
  }
  const std::int64_t before = ResidentBytes();
  TxHashMap map(8192);
  map.Populate(24);
  const std::int64_t added = ResidentBytes() - before;
  EXPECT_LE(added, std::int64_t{28} << 20) << "populating 196608 nodes added " << added
                                           << " resident bytes";
#else
  GTEST_SKIP() << "resident set is not measurable in this build";
#endif
}

TEST(NodeSlabsTest, FreedNodeIsNextHandedOutAtLowestFreeAddress) {
  TxHashMap::Node* a = TxHashMap::PrepareNode(1, 3);
  TxHashMap::Node* b = TxHashMap::PrepareNode(2, 6);
  TxHashMap::Node* c = TxHashMap::PrepareNode(3, 9);
  EXPECT_LT(Address(a), Address(b));
  EXPECT_LT(Address(b), Address(c));

  TxHashMap::FreeNode(b);
  TxHashMap::Node* d = TxHashMap::PrepareNode(4, 12);
  EXPECT_EQ(d, b);

  // Two free blocks: the lower one goes first, whatever the release order.
  TxHashMap::FreeNode(a);
  TxHashMap::DiscardNode(c);
  TxHashMap::Node* e = TxHashMap::PrepareNode(5, 15);
  TxHashMap::Node* f = TxHashMap::PrepareNode(6, 18);
  EXPECT_EQ(e, a);
  EXPECT_EQ(f, c);
  for (TxHashMap::Node* node : {d, e, f}) {
    TxHashMap::FreeNode(node);
  }
}

TEST(NodeSlabsTest, PopulatedNodesAreOneBlockApart) {
  ScopedThreadSlot slot;
  TxHashMap map(1);
  map.Populate(64);  // one bucket: key i is the i-th node allocated
  std::vector<TxHashMap::Node*> nodes(64);
  for (std::uint64_t key = 0; key < 64; ++key) {
    ASSERT_TRUE(map.Remove(key, &nodes[key]));
  }
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    EXPECT_EQ(Address(nodes[i]) - Address(nodes[i - 1]), sizeof(TxHashMap::Node)) << i;
  }
  for (TxHashMap::Node* node : nodes) {
    TxHashMap::FreeNode(node);
  }
}

// Distinct 4-KiB pages holding bucket b's populated nodes. Unlinks them
// (this is the table's last use) and returns them to the pool.
std::size_t BucketPages(TxHashMap& map, std::size_t bucket, std::size_t per_bucket) {
  std::set<std::uintptr_t> pages;
  for (std::size_t i = 0; i < per_bucket; ++i) {
    TxHashMap::Node* node = nullptr;
    if (map.Remove(i * map.bucket_count() + bucket, &node)) {
      pages.insert(Address(node) >> 12);
      TxHashMap::FreeNode(node);
    }
  }
  return pages.size();
}

// The e2e benchmark rebuilds its table for every trial. Reuse must not
// scatter a later table's chains: after five cycles of populate, 4-thread
// insert/remove churn and teardown, a freshly populated bucket still sits
// on at most 2 pages (24 nodes = 3 KiB). A LIFO free list hands the
// previous table's churn nodes back first and spreads chains wider.
TEST(NodeSlabsTest, ChurnedAndRebuiltTablesKeepChainsOnTwoPages) {
  constexpr std::size_t kBuckets = 256;
  constexpr std::size_t kPerBucket = 24;
  constexpr std::uint64_t kStable = kBuckets * kPerBucket;
  constexpr std::uint64_t kChurn = 1024;
  constexpr int kThreads = 4;
  auto lock = MakeLock("rwle-opt");
  for (int cycle = 0; cycle < 5; ++cycle) {
    TxHashMap map(kBuckets);
    map.Populate(kPerBucket);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ScopedThreadSlot slot;
        Rng rng(100 * cycle + t);
        for (int i = 0; i < 500; ++i) {
          const std::uint64_t key = kStable + rng.NextBelow(kChurn);
          if (rng.NextBool(0.5)) {
            TxHashMap::Node* node = TxHashMap::PrepareNode(key, key * 3);
            bool inserted = false;
            lock->Write([&] { inserted = map.InsertPrepared(node); });
            if (!inserted) {
              TxHashMap::DiscardNode(node);
            }
          } else {
            TxHashMap::Node* unlinked = nullptr;
            lock->Write([&] { map.Remove(key, &unlinked); });
            if (unlinked != nullptr) {
              TxHashMap::FreeNode(unlinked);
            }
          }
        }
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
  }

  ScopedThreadSlot slot;
  TxHashMap map(kBuckets);
  map.Populate(kPerBucket);
  std::size_t widest = 0;
  for (std::size_t bucket = 0; bucket < kBuckets; ++bucket) {
    widest = std::max(widest, BucketPages(map, bucket, kPerBucket));
  }
  EXPECT_LE(widest, 2u);
}

TEST(TxHashMapTest, InsertLookupRemove) {
  ScopedThreadSlot slot;
  TxHashMap map(8);

  TxHashMap::Node* node = TxHashMap::PrepareNode(5, 55);
  EXPECT_TRUE(map.InsertPrepared(node));
  std::uint64_t value = 0;
  EXPECT_TRUE(map.Lookup(5, &value));
  EXPECT_EQ(value, 55u);
  EXPECT_FALSE(map.Lookup(6, &value));

  TxHashMap::Node* duplicate = TxHashMap::PrepareNode(5, 99);
  EXPECT_FALSE(map.InsertPrepared(duplicate));
  TxHashMap::DiscardNode(duplicate);

  TxHashMap::Node* unlinked = nullptr;
  EXPECT_TRUE(map.Remove(5, &unlinked));
  ASSERT_NE(unlinked, nullptr);
  TxHashMap::FreeNode(unlinked);
  EXPECT_FALSE(map.Lookup(5, &value));
  EXPECT_EQ(map.SizeDirect(), 0u);
}

TEST(TxHashMapTest, UpdateExistingKey) {
  ScopedThreadSlot slot;
  TxHashMap map(4);
  EXPECT_TRUE(map.InsertPrepared(TxHashMap::PrepareNode(1, 10)));
  EXPECT_TRUE(map.Update(1, 20));
  std::uint64_t value = 0;
  EXPECT_TRUE(map.Lookup(1, &value));
  EXPECT_EQ(value, 20u);
  EXPECT_FALSE(map.Update(2, 5));
}

TEST(TxHashMapTest, PopulateLaysOutDenseKeys) {
  TxHashMap map(4);
  map.Populate(10);
  EXPECT_EQ(map.SizeDirect(), 40u);
  // Keys 0..39 present exactly once: sum = 39*40/2.
  EXPECT_EQ(map.KeySumDirect(), 780u);
}

TEST(TxHashMapTest, ScanBucketHonorsLimit) {
  ScopedThreadSlot slot;
  TxHashMap map(1);
  map.Populate(50);
  // Sum of first 3 values along the single bucket.
  const std::uint64_t sum3 = map.ScanBucket(0, 3);
  const std::uint64_t sum_all = map.ScanBucket(0, 1000);
  EXPECT_LT(sum3, sum_all);
}

TEST(TxHashMapTest, RemoveMiddleOfChain) {
  ScopedThreadSlot slot;
  TxHashMap map(1);  // single bucket: all keys chain together
  for (std::uint64_t k = 0; k < 5; ++k) {
    EXPECT_TRUE(map.InsertPrepared(TxHashMap::PrepareNode(k, k)));
  }
  TxHashMap::Node* unlinked = nullptr;
  EXPECT_TRUE(map.Remove(2, &unlinked));
  TxHashMap::FreeNode(unlinked);
  EXPECT_EQ(map.SizeDirect(), 4u);
  for (std::uint64_t k = 0; k < 5; ++k) {
    std::uint64_t value = 0;
    EXPECT_EQ(map.Lookup(k, &value), k != 2);
  }
}

// Cross-scheme integration: run the sensitivity workload on a small map
// under every lock and verify structural integrity afterwards. This is the
// closest thing to a linearizability smoke test the closure API allows:
// the map must remain a valid chain set whose keys all map to their bucket.
class HashMapSchemeTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override { saved_config_ = HtmRuntime::Global().config(); }
  void TearDown() override { HtmRuntime::Global().set_config(saved_config_); }
  HtmConfig saved_config_;
};

TEST_P(HashMapSchemeTest, ConcurrentChurnPreservesStructure) {
  auto lock = MakeLock(GetParam());
  ASSERT_NE(lock, nullptr);
  HashMapWorkload workload(HashMapScenario{.buckets = 4, .per_bucket = 32});

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 400;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ScopedThreadSlot slot;
      Rng rng(1000 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        workload.Op(*lock, rng, rng.NextBool(0.3));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }

  // Structural audit: every key is in its bucket exactly once.
  TxHashMap& map = workload.map();
  const std::uint64_t size = map.SizeDirect();
  EXPECT_GT(size, 0u);
  std::uint64_t rescan = 0;
  for (std::uint64_t key = 0; key < 4 * 32; ++key) {
    ScopedThreadSlot slot;
    std::uint64_t value = 0;
    if (map.Lookup(key, &value)) {
      ++rescan;
      EXPECT_EQ(value, key * 3);  // all writers store key*3
    }
  }
  EXPECT_EQ(rescan, size);
}

TEST_P(HashMapSchemeTest, ReadersSeeOnlyCommittedValues) {
  auto lock = MakeLock(GetParam());
  ASSERT_NE(lock, nullptr);
  TxHashMap map(2);
  map.Populate(16);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad_values{0};

  // Writers update values to key*3 (the invariant all values satisfy).
  std::thread writer([&] {
    ScopedThreadSlot slot;
    Rng rng(7);
    for (int i = 0; i < 500; ++i) {
      const std::uint64_t key = rng.NextBelow(32);
      lock->Write([&] { map.Update(key, key * 3); });
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      ScopedThreadSlot slot;
      Rng rng(100 + r);
      while (!stop.load()) {
        const std::uint64_t key = rng.NextBelow(32);
        std::uint64_t value = 0;
        bool found = false;
        lock->Read([&] { found = map.Lookup(key, &value); });
        if (found && value != key * 3) {
          bad_values.fetch_add(1);
        }
      }
    });
  }

  writer.join();
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(bad_values.load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, HashMapSchemeTest,
                         ::testing::Values("rwle-opt", "rwle-pes", "rwle-fair",
                                           "rwle-norot", "rwle-split", "hle", "brlock",
                                           "rwl", "sgl"),
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
