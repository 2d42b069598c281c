// BravoLock (scheme "bravo"): bias fast path, revocation, the inhibit
// throttle, and the slot-hash aliasing discipline of the distributed
// visible-reader table across all 1024 registry slots.
#include "src/locks/bravo_lock.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "src/common/thread_registry.h"
#include "src/htm/thread_state.h"
#include "src/memory/tx_var.h"
#include "src/rwle/bravo_reader_table.h"

namespace rwle {
namespace {

BravoBreakdown BravoStats(BravoLock& lock) {
  return lock.stats().Aggregate().Snapshot().bravo;
}

TEST(BravoLockTest, BiasedReadTakesTheFastPath) {
  ScopedThreadSlot slot;
  BravoLock lock;
  TxVar<std::uint64_t> cell(7);

  ASSERT_TRUE(lock.bias_armed());
  std::uint64_t seen = 0;
  lock.Read([&] { seen = cell.Load(); });
  EXPECT_EQ(seen, 7u);

  const BravoBreakdown bravo = BravoStats(lock);
  EXPECT_EQ(bravo.fast_reads, 1u);
  EXPECT_EQ(bravo.slow_reads, 0u);
  EXPECT_EQ(bravo.revocations, 0u);
  EXPECT_TRUE(lock.bias_armed());
  // The reader withdrew: its hashed entry is empty again.
  const std::uint32_t index = BravoReaderTable::IndexFor(slot.slot());
  EXPECT_EQ(lock.table().Word(index).load(), BravoReaderTable::kEmpty);
}

TEST(BravoLockTest, WriteRevokesBiasAndInhibitsReArm) {
  ScopedThreadSlot slot;
  BravoLock lock;  // default inhibit_multiplier = 9
  TxVar<std::uint64_t> cell(0);

  lock.Write([&] { cell.Store(1); });
  const BravoBreakdown after_write = BravoStats(lock);
  EXPECT_EQ(after_write.revocations, 1u);
  EXPECT_FALSE(lock.bias_armed());

  // Inside the inhibit window: reads go through the underlay and must not
  // re-arm (the window is 9x the revocation's full-table scan, far more
  // than a read's lock-op charges).
  std::uint64_t seen = 0;
  lock.Read([&] { seen = cell.Load(); });
  EXPECT_EQ(seen, 1u);
  const BravoBreakdown after_read = BravoStats(lock);
  EXPECT_EQ(after_read.slow_reads, 1u);
  EXPECT_EQ(after_read.bias_arms, 0u);
  EXPECT_FALSE(lock.bias_armed());
}

TEST(BravoLockTest, ZeroInhibitReArmsOnTheNextSlowRead) {
  ScopedThreadSlot slot;
  BravoLock::Options options;
  options.inhibit_multiplier = 0;
  BravoLock lock(options);
  TxVar<std::uint64_t> cell(0);

  lock.Write([&] { cell.Store(1); });
  EXPECT_FALSE(lock.bias_armed());

  lock.Read([&] { (void)cell.Load(); });  // slow read re-arms immediately
  EXPECT_TRUE(lock.bias_armed());
  lock.Read([&] { (void)cell.Load(); });  // and the next read is fast again

  const BravoBreakdown bravo = BravoStats(lock);
  EXPECT_EQ(bravo.slow_reads, 1u);
  EXPECT_EQ(bravo.bias_arms, 1u);
  EXPECT_EQ(bravo.fast_reads, 1u);
}

// The table's slot-hash over the full 1024-slot registry: the hash is
// deliberately non-injective, and every colliding pair must behave per the
// aliasing protocol -- second claimant refused (it degrades to the
// underlay), entry reusable by either owner once withdrawn.
TEST(BravoLockTest, SlotHashAliasingSweepAcrossAllRegistrySlots) {
  std::map<std::uint32_t, std::vector<std::uint32_t>> by_index;
  for (std::uint32_t slot = 0; slot < kMaxThreads; ++slot) {
    const std::uint32_t index = BravoReaderTable::IndexFor(slot);
    ASSERT_LT(index, BravoReaderTable::kSlots);
    by_index[index].push_back(slot);
  }

  std::uint32_t aliased_groups = 0;
  BravoReaderTable table;
  for (const auto& [index, slots] : by_index) {
    if (slots.size() < 2) {
      continue;
    }
    ++aliased_groups;
    // First claimant wins, every aliased neighbor is refused while it holds
    // the entry, and the entry is reusable once withdrawn.
    ASSERT_TRUE(table.TryClaim(index, slots[0], BravoReaderTable::kActive));
    for (std::size_t i = 1; i < slots.size(); ++i) {
      EXPECT_FALSE(table.TryClaim(index, slots[i], BravoReaderTable::kActive))
          << "slots " << slots[0] << " and " << slots[i] << " at index " << index;
    }
    table.Withdraw(index);
    ASSERT_TRUE(table.TryClaim(index, slots[1], BravoReaderTable::kActive));
    const std::uint64_t entry = table.Word(index).load();
    EXPECT_EQ(BravoReaderTable::EntryOwner(entry), slots[1]);
    EXPECT_EQ(BravoReaderTable::EntryState(entry), BravoReaderTable::kActive);
    table.Withdraw(index);
  }
  // A Fibonacci hash of 1024 consecutive slots into 1024 buckets must
  // collide somewhere (it is a permutation only of the full 64-bit space);
  // if it never did, the aliasing paths above were all dead code.
  EXPECT_GT(aliased_groups, 0u);
}

TEST(BravoLockTest, EncodeRoundTripsBoundarySlots) {
  for (const std::uint32_t slot : {0u, 1u, 511u, kMaxThreads - 1}) {
    for (const std::uint64_t state :
         {BravoReaderTable::kParked, BravoReaderTable::kGranted,
          BravoReaderTable::kActive}) {
      const std::uint64_t word = BravoReaderTable::Encode(slot, state);
      EXPECT_NE(word, BravoReaderTable::kEmpty);
      EXPECT_EQ(BravoReaderTable::EntryOwner(word), slot);
      EXPECT_EQ(BravoReaderTable::EntryState(word), state);
    }
  }
}

TEST(BravoLockTest, WriteMutualExclusionUnderBiasTraffic) {
  BravoLock::Options options;
  options.inhibit_multiplier = 0;  // keep the bias thrashing: every write revokes
  BravoLock lock(options);
  TxVar<std::uint64_t> counter(0);
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kWritesPerWriter = 100;
  std::atomic<bool> stop{false};

  std::vector<std::thread> workers;
  for (int t = 0; t < kWriters; ++t) {
    workers.emplace_back([&] {
      ScopedThreadSlot slot;
      for (int i = 0; i < kWritesPerWriter; ++i) {
        lock.Write([&] { counter.Store(counter.Load() + 1); });
      }
    });
  }
  std::atomic<std::uint64_t> stale_reads{0};
  for (int t = 0; t < kReaders; ++t) {
    workers.emplace_back([&] {
      ScopedThreadSlot slot;
      std::uint64_t last = 0;
      while (!stop.load()) {
        std::uint64_t seen = 0;
        lock.Read([&] { seen = counter.Load(); });
        if (seen < last) {
          stale_reads.fetch_add(1);  // the counter only ever grows
        }
        last = seen;
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) {
    workers[t].join();
  }
  stop.store(true);
  for (int t = kWriters; t < kWriters + kReaders; ++t) {
    workers[t].join();
  }

  EXPECT_EQ(counter.LoadDirect(),
            static_cast<std::uint64_t>(kWriters) * kWritesPerWriter);
  EXPECT_EQ(stale_reads.load(), 0u);
  const BravoBreakdown bravo = BravoStats(lock);
  EXPECT_GE(bravo.revocations, 1u);
  EXPECT_EQ(bravo.fast_reads + bravo.slow_reads,
            lock.stats().Aggregate().Snapshot().commits.uninstrumented_read);
}

}  // namespace
}  // namespace rwle
