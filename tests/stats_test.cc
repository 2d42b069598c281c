// Unit tests for the statistics module: abort classification (the mapping
// from facility aborts to the paper's figure legend), sharded aggregation.
#include "src/stats/stats.h"

#include <gtest/gtest.h>

#include <thread>

#include "src/htm/thread_state.h"


namespace rwle {
namespace {

TEST(ClassifyAbortTest, HtmMapping) {
  EXPECT_EQ(ClassifyAbort(TxKind::kHtm, AbortCause::kConflictTx),
            AbortCategory::kHtmTxConflict);
  EXPECT_EQ(ClassifyAbort(TxKind::kHtm, AbortCause::kConflictNonTx),
            AbortCategory::kHtmNonTx);
  EXPECT_EQ(ClassifyAbort(TxKind::kHtm, AbortCause::kInterrupt),
            AbortCategory::kHtmNonTx);
  EXPECT_EQ(ClassifyAbort(TxKind::kHtm, AbortCause::kCapacityRead),
            AbortCategory::kHtmCapacity);
  EXPECT_EQ(ClassifyAbort(TxKind::kHtm, AbortCause::kCapacityWrite),
            AbortCategory::kHtmCapacity);
  EXPECT_EQ(ClassifyAbort(TxKind::kHtm, AbortCause::kExplicit),
            AbortCategory::kLockAborts);
}

TEST(ClassifyAbortTest, RotMapping) {
  EXPECT_EQ(ClassifyAbort(TxKind::kRot, AbortCause::kConflictTx),
            AbortCategory::kRotConflict);
  EXPECT_EQ(ClassifyAbort(TxKind::kRot, AbortCause::kConflictNonTx),
            AbortCategory::kRotConflict);
  EXPECT_EQ(ClassifyAbort(TxKind::kRot, AbortCause::kInterrupt),
            AbortCategory::kRotConflict);
  EXPECT_EQ(ClassifyAbort(TxKind::kRot, AbortCause::kCapacityWrite),
            AbortCategory::kRotCapacity);
  EXPECT_EQ(ClassifyAbort(TxKind::kRot, AbortCause::kExplicit),
            AbortCategory::kLockAborts);
}

TEST(StatsRegistryTest, ShardsAggregateAcrossThreads) {
  StatsRegistry registry;
  std::thread a([&] {
    ScopedThreadSlot slot;
    registry.RecordCommit(CommitPath::kHtm);
    registry.RecordCommit(CommitPath::kUninstrumentedRead);
    registry.RecordAbort(TxKind::kHtm, AbortCause::kCapacityRead);
  });
  a.join();
  std::thread b([&] {
    ScopedThreadSlot slot;
    registry.RecordCommit(CommitPath::kRot);
    registry.RecordAbort(TxKind::kRot, AbortCause::kConflictTx);
  });
  b.join();

  const ThreadStats total = registry.Aggregate();
  EXPECT_EQ(total.TotalCommits(), 3u);
  EXPECT_EQ(total.TotalAborts(), 2u);
  EXPECT_EQ(total.commits[static_cast<int>(CommitPath::kHtm)], 1u);
  EXPECT_EQ(total.commits[static_cast<int>(CommitPath::kRot)], 1u);
  EXPECT_EQ(total.aborts[static_cast<int>(AbortCategory::kHtmCapacity)], 1u);
  EXPECT_EQ(total.aborts[static_cast<int>(AbortCategory::kRotConflict)], 1u);

  registry.Reset();
  EXPECT_EQ(registry.Aggregate().TotalCommits(), 0u);
}

TEST(StatsRegistryTest, PlusEqualsMerges) {
  ThreadStats a, b;
  a.commits[0] = 2;
  a.aborts[1] = 3;
  a.bravo[0] = 11;
  b.commits[0] = 5;
  b.aborts[1] = 7;
  b.bravo[0] = 13;
  a += b;
  EXPECT_EQ(a.commits[0], 7u);
  EXPECT_EQ(a.aborts[1], 10u);
  EXPECT_EQ(a.bravo[0], 24u);
}

TEST(StatsRegistryTest, BravoCountersAggregateAndReset) {
  StatsRegistry registry;
  std::thread a([&] {
    ScopedThreadSlot slot;
    registry.RecordBravo(BravoCounter::kFastRead);
    registry.RecordBravo(BravoCounter::kFastRead);
    registry.RecordBravo(BravoCounter::kRevocation);
  });
  a.join();
  std::thread b([&] {
    ScopedThreadSlot slot;
    registry.RecordBravo(BravoCounter::kSlowRead);
    registry.RecordBravo(BravoCounter::kRevokedReader, 5);
  });
  b.join();

  const BravoBreakdown bravo = registry.Aggregate().Snapshot().bravo;
  EXPECT_EQ(bravo.fast_reads, 2u);
  EXPECT_EQ(bravo.slow_reads, 1u);
  EXPECT_EQ(bravo.revocations, 1u);
  EXPECT_EQ(bravo.revoked_readers, 5u);
  EXPECT_EQ(bravo.parked_reads, 0u);
  EXPECT_EQ(bravo.Total(), 9u);

  registry.Reset();
  EXPECT_EQ(registry.Aggregate().Snapshot().bravo.Total(), 0u);
}

TEST(NamesTest, AllNamesNonEmpty) {
  for (int i = 0; i < kCommitPathCount; ++i) {
    EXPECT_STRNE(CommitPathName(static_cast<CommitPath>(i)), "?");
  }
  for (int i = 0; i < kAbortCategoryCount; ++i) {
    EXPECT_STRNE(AbortCategoryName(static_cast<AbortCategory>(i)), "?");
  }
  for (int i = 0; i < kBravoCounterCount; ++i) {
    EXPECT_STRNE(BravoCounterName(static_cast<BravoCounter>(i)), "?");
    EXPECT_STRNE(BravoCounterKey(static_cast<BravoCounter>(i)), "?");
  }
  EXPECT_STREQ(AbortCauseName(AbortCause::kCapacityRead), "capacity-read");
}

}  // namespace
}  // namespace rwle
