// KyotoCacheDB-lite tests: record operations, whole-database operations,
// free-list recycling, nested mutex interplay, cross-scheme integrity.
#include "src/workloads/kyoto/cache_db.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/htm/thread_state.h"
#include "src/locks/lock_factory.h"

namespace rwle {
namespace {

CacheDbConfig SmallConfig() {
  CacheDbConfig config;
  config.slots = 4;
  config.buckets_per_slot = 16;
  config.initial_records = 128;
  config.key_space = 256;
  return config;
}

TEST(CacheDbTest, GetSetRemoveRoundTrip) {
  ScopedThreadSlot slot;
  CacheDb db(SmallConfig());

  db.Set(1000 % 256, 42);  // key inside key space
  std::uint64_t value = 0;
  EXPECT_TRUE(db.Get(1000 % 256, &value));
  EXPECT_EQ(value, 42u);

  db.Set(1000 % 256, 43);  // overwrite
  EXPECT_TRUE(db.Get(1000 % 256, &value));
  EXPECT_EQ(value, 43u);

  EXPECT_TRUE(db.Remove(1000 % 256));
  EXPECT_FALSE(db.Get(1000 % 256, &value));
  EXPECT_FALSE(db.Remove(1000 % 256));
}

TEST(CacheDbTest, PopulationApproximatesTarget) {
  CacheDb db(SmallConfig());
  const std::uint64_t count = db.CountDirect();
  // Bernoulli population: within a loose band around initial_records.
  EXPECT_GT(count, 64u);
  EXPECT_LT(count, 224u);
  EXPECT_TRUE(db.CheckChainsDirect());
}

TEST(CacheDbTest, CountMatchesDirectCountWhenQuiescent) {
  ScopedThreadSlot slot;
  CacheDb db(SmallConfig());
  EXPECT_EQ(db.Count(), db.CountDirect());
}

TEST(CacheDbTest, ClearOddValuesDropsExactlyOddRecords) {
  ScopedThreadSlot slot;
  CacheDbConfig config = SmallConfig();
  config.initial_records = 0;  // start empty
  CacheDb db(config);
  for (std::uint64_t key = 0; key < 20; ++key) {
    db.Set(key, key);  // values 0..19: 10 odd
  }
  EXPECT_EQ(db.CountDirect(), 20u);
  EXPECT_EQ(db.ClearOddValues(), 10u);
  EXPECT_EQ(db.CountDirect(), 10u);
  // Removed keys can be re-inserted (free list recycling works).
  for (std::uint64_t key = 1; key < 20; key += 2) {
    db.Set(key, key * 2);
  }
  EXPECT_EQ(db.CountDirect(), 20u);
  EXPECT_TRUE(db.CheckChainsDirect());
}

TEST(CacheDbTest, IterateSumSeesAllValues) {
  ScopedThreadSlot slot;
  CacheDbConfig config = SmallConfig();
  config.initial_records = 0;
  CacheDb db(config);
  std::uint64_t expected = 0;
  for (std::uint64_t key = 0; key < 30; ++key) {
    db.Set(key, key * 7);
    expected += key * 7;
  }
  EXPECT_EQ(db.IterateSum(), expected);
}

class KyotoSchemeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(KyotoSchemeTest, WickedTrafficKeepsChainsValid) {
  auto lock = MakeLock(GetParam());
  ASSERT_NE(lock, nullptr);
  KyotoWorkload workload(SmallConfig());

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ScopedThreadSlot slot;
      Rng rng(900 + t);
      for (int i = 0; i < 200; ++i) {
        workload.Op(*lock, rng, rng.NextBool(0.05));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_TRUE(workload.db().CheckChainsDirect());
  // Every record's key must still be found by a fresh Get.
  ScopedThreadSlot slot;
  const std::uint64_t count = workload.db().CountDirect();
  EXPECT_EQ(workload.db().Count(), count);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, KyotoSchemeTest,
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
