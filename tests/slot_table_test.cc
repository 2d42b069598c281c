// Tests for the per-slot record table (src/common/slot_table.h) and the
// per-lock state built on it: first-touch publication racing writer scans,
// exact harvest across recycled slots, and the per-lock memory footprint.
#include "src/common/slot_table.h"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/thread_registry.h"
#include "src/htm/thread_state.h"
#include "src/locks/lock_factory.h"
#include "src/memory/tx_var.h"
#include "src/rwle/rwle_lock.h"
#include "src/stats/stats.h"
#include "src/trace/latency_registry.h"
#include "tests/resident_set.h"

namespace rwle {
namespace {

// Registry slots claimed without a thread, standing in for threads parked
// elsewhere in the process: later registrations land past them.
class HeldRegistrySlots {
 public:
  explicit HeldRegistrySlots(std::uint32_t count) {
    for (std::uint32_t i = 0; i < count; ++i) {
      slots_.push_back(ThreadRegistry::Global().Register());
    }
  }
  ~HeldRegistrySlots() {
    for (const std::uint32_t slot : slots_) {
      ThreadRegistry::Global().Unregister(slot);
    }
  }
  HeldRegistrySlots(const HeldRegistrySlots&) = delete;
  HeldRegistrySlots& operator=(const HeldRegistrySlots&) = delete;

 private:
  std::vector<std::uint32_t> slots_;
};

TEST(SlotTableTest, RecordsStartZeroAndPublishPerSegment) {
  struct Record {
    std::uint64_t a;
    std::uint32_t b;
  };
  SlotTable<Record> table;
  EXPECT_EQ(table.Find(3), nullptr);

  Record& record = table.Local(3);
  EXPECT_EQ(record.a, 0u);
  EXPECT_EQ(record.b, 0u);
  record.a = 7;
  EXPECT_EQ(table.Find(3), &record);
  ASSERT_NE(table.Find(kSlotSegmentSize - 1), nullptr);  // same segment
  EXPECT_EQ(table.Find(kSlotSegmentSize), nullptr);       // next one: not yet
  EXPECT_EQ(&table.Local(3), &record);                    // records never move

  EXPECT_EQ(table.Find(kMaxThreads - 1), nullptr);
  table.Local(kMaxThreads - 1).b = 9;
  EXPECT_NE(table.Find(kMaxThreads - 1), nullptr);
  EXPECT_EQ(table.Find(kMaxThreads - kSlotSegmentSize - 1), nullptr);

  std::vector<std::uint32_t> visited;
  table.ForEachPublished(kMaxThreads, [&](std::uint32_t slot, const Record& r) {
    if (r.a != 0 || r.b != 0) {
      visited.push_back(slot);
    }
  });
  EXPECT_EQ(visited, (std::vector<std::uint32_t>{3, kMaxThreads - 1}));

  // The walk stops at `end`, even inside a published segment.
  std::uint32_t walked = 0;
  table.ForEachPublished(4, [&](std::uint32_t, const Record&) { ++walked; });
  EXPECT_EQ(walked, 4u);
}

// Readers make their first-ever Read on a fresh lock -- allocating and
// publishing their segment, then raising their clock -- while a writer
// scans: Synchronize() and NS-path writes of a two-cell pair. A scan that
// finds the readers' segment unpublished must be as safe as one that reads
// an even clock, so no reader may ever see the pair torn.
TEST(SlotTableTest, FirstTouchReadersRacingWriterScansNeverSeeTornPairs) {
  constexpr int kReaders = 4;
  constexpr int kRounds = 300;
  ScopedThreadSlot writer_slot;
  // Push the readers past the writer's segment: with 40 slots held they
  // land in the third segment, which only they ever publish.
  HeldRegistrySlots parked(40);

  RwLePolicy policy;
  policy.max_htm_retries = 0;  // every write takes the NS path
  policy.max_rot_retries = 0;
  TxVar<std::uint64_t> x(0);
  TxVar<std::uint64_t> y(0);
  std::unique_ptr<RwLeLock> lock;
  std::atomic<int> readers_done{0};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint32_t> reader_segments_shared{0};
  std::barrier sync(kReaders + 1);

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      ScopedThreadSlot slot;
      if (slot.slot() / kSlotSegmentSize < 2 ||
          slot.slot() / kSlotSegmentSize == writer_slot.slot() / kSlotSegmentSize) {
        reader_segments_shared.fetch_add(1);
      }
      for (int round = 0; round < kRounds; ++round) {
        sync.arrive_and_wait();  // the writer has built this round's lock
        lock->Read([&] {
          if (x.Load() != y.Load()) {
            torn.fetch_add(1);
          }
        });
        readers_done.fetch_add(1);
        sync.arrive_and_wait();  // the writer may now destroy the lock
      }
    });
  }

  std::uint64_t writes = 0;
  for (int round = 0; round < kRounds; ++round) {
    lock = std::make_unique<RwLeLock>(policy);
    readers_done.store(0);
    sync.arrive_and_wait();
    // At least one write per round, and keep scanning until every reader
    // has made its first Read.
    do {
      lock->Synchronize();
      lock->Write([&] {
        x.Store(x.Load() + 1);
        y.Store(y.Load() + 1);
      });
      ++writes;
    } while (readers_done.load() < kReaders);
    const ThreadStats stats = lock->stats().Aggregate();
    EXPECT_EQ(stats.commits[static_cast<int>(CommitPath::kUninstrumentedRead)],
              static_cast<std::uint64_t>(kReaders));
    sync.arrive_and_wait();
  }
  for (auto& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(reader_segments_shared.load(), 0u);
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(x.Load(), writes);
  EXPECT_EQ(y.Load(), writes);
}

// A slot's record outlives the thread that used it: the next thread to
// claim the slot keeps counting into the same record, and harvest and reset
// see exactly what was recorded, before and after the recycling.
TEST(SlotTableTest, StatsAndLatencyStayExactAcrossSlotRecycling) {
  StatsRegistry stats;
  LatencyRegistry latency;
  RwLeLock lock;
  TxVar<std::uint64_t> cell(0);
  // One live thread keeps a slot in the first segment, so the recycled slot
  // is not the only one the walks visit.
  std::uint32_t steady_slot = kInvalidThreadSlot;
  std::barrier steady_ready(2);
  std::barrier steady_release(2);
  std::thread steady([&] {
    ScopedThreadSlot slot;
    steady_slot = slot.slot();
    stats.RecordCommit(CommitPath::kRot);
    latency.Record(slot.slot(), OpKind::kWrite, CommitPath::kRot, 1000);
    lock.Write([&] { cell.Store(cell.Load() + 1); });
    steady_ready.arrive_and_wait();
    steady_release.arrive_and_wait();
  });
  steady_ready.arrive_and_wait();

  auto use_once = [&](std::uint64_t cycles) {
    std::uint32_t claimed = kInvalidThreadSlot;
    std::thread worker([&] {
      ScopedThreadSlot slot;
      claimed = slot.slot();
      stats.RecordCommit(CommitPath::kHtm);
      stats.RecordAbort(TxKind::kHtm, AbortCause::kConflictTx);
      latency.Record(slot.slot(), OpKind::kRead, CommitPath::kUninstrumentedRead, cycles);
      lock.Read([&] { (void)cell.Load(); });
    });
    worker.join();
    return claimed;
  };

  const std::uint32_t first = use_once(100);
  const std::uint32_t second = use_once(300);
  // EXPECT, not ASSERT: `steady` must still be released and joined below.
  EXPECT_EQ(first, second) << "the registry hands out the lowest free slot";
  EXPECT_NE(first, steady_slot);

  ThreadStats total = stats.Aggregate();
  EXPECT_EQ(total.commits[static_cast<int>(CommitPath::kHtm)], 2u);
  EXPECT_EQ(total.commits[static_cast<int>(CommitPath::kRot)], 1u);
  EXPECT_EQ(total.aborts[static_cast<int>(AbortCategory::kHtmTxConflict)], 2u);
  LatencySnapshot snapshot = latency.Snapshot();
  const LatencyStats& reads =
      snapshot.by_path[static_cast<int>(OpKind::kRead)]
                      [static_cast<int>(CommitPath::kUninstrumentedRead)];
  EXPECT_EQ(reads.count, 2u);
  EXPECT_EQ(reads.max, 300u);
  EXPECT_DOUBLE_EQ(reads.mean, 200.0);
  EXPECT_EQ(snapshot.op[static_cast<int>(OpKind::kWrite)].count, 1u);
  ThreadStats lock_total = lock.stats().Aggregate();
  EXPECT_EQ(lock_total.commits[static_cast<int>(CommitPath::kUninstrumentedRead)], 2u);
  EXPECT_EQ(lock_total.TotalCommits(), 3u);

  stats.Reset();
  latency.Reset();
  lock.stats().Reset();
  EXPECT_EQ(stats.Aggregate().TotalCommits(), 0u);
  EXPECT_EQ(stats.Aggregate().TotalAborts(), 0u);
  EXPECT_EQ(latency.Snapshot().op[static_cast<int>(OpKind::kRead)].count, 0u);
  EXPECT_EQ(latency.Snapshot().op[static_cast<int>(OpKind::kWrite)].count, 0u);
  EXPECT_EQ(lock.stats().Aggregate().TotalCommits(), 0u);

  EXPECT_EQ(use_once(50), first);
  total = stats.Aggregate();
  EXPECT_EQ(total.TotalCommits(), 1u);
  EXPECT_EQ(total.TotalAborts(), 1u);
  snapshot = latency.Snapshot();
  EXPECT_EQ(snapshot.op[static_cast<int>(OpKind::kRead)].count, 1u);
  EXPECT_EQ(snapshot.op[static_cast<int>(OpKind::kRead)].max, 50u);
  EXPECT_EQ(lock.stats().Aggregate().TotalCommits(), 1u);

  steady_release.arrive_and_wait();
  steady.join();
}

// Per-lock memory grows with the threads that use a lock: a built but
// unused rwle-opt lock costs at most a page, and one used by four threads
// (one Read and one Write each) at most 96 KiB -- the records of one
// segment plus the latency histograms those threads actually filled.
TEST(SlotTableTest, RwLeOptFootprintGrowsWithTheThreadsThatUseIt) {
#if !defined(__linux__)
  GTEST_SKIP() << "resident-set size is read from /proc/self/statm";
#elif defined(RWLE_RSS_IS_INSTRUMENTED)
  GTEST_SKIP() << "sanitizer shadow memory inflates the resident set";
#else
  constexpr int kLocks = 4096;
  constexpr int kThreads = 4;
  constexpr std::int64_t kBuiltBytesPerLock = 4 * 1024;
  constexpr std::int64_t kUsedBytesPerLock = 96 * 1024;
  TxVar<std::uint64_t> cell(0);
  // Warm the process-wide state (the fabric's conflict table, per-thread
  // runtime contexts) so the deltas below are the locks' own.
  {
    ScopedThreadSlot slot;
    const std::unique_ptr<ElidableLock> warm = MakeLock("rwle-opt");
    warm->Read([&] { (void)cell.Load(); });
    warm->Write([&] { cell.Store(cell.Load() + 1); });
  }
  std::vector<std::unique_ptr<ElidableLock>> locks;
  locks.reserve(kLocks);

  const std::int64_t before = ResidentBytes();
  for (int i = 0; i < kLocks; ++i) {
    locks.push_back(MakeLock("rwle-opt"));
  }
  const std::int64_t built = ResidentBytes();
  EXPECT_LE((built - before) / kLocks, kBuiltBytesPerLock)
      << "built but unused: " << (built - before) / kLocks << " B per lock";

  // All four threads hold their slots at once (so they are four distinct
  // slots) but take turns, so every write commits on the HTM path.
  std::atomic<int> registered{0};
  std::atomic<int> turn{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ScopedThreadSlot slot;
      registered.fetch_add(1);
      while (registered.load() < kThreads || turn.load() != t) {
        std::this_thread::yield();
      }
      for (const auto& lock : locks) {
        lock->Read([&] { (void)cell.Load(); });
        lock->Write([&] { cell.Store(cell.Load() + 1); });
      }
      turn.fetch_add(1);
      while (turn.load() < kThreads) {
        std::this_thread::yield();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const std::int64_t used = ResidentBytes();
  EXPECT_LE((used - before) / kLocks, kUsedBytesPerLock)
      << "used by " << kThreads << " threads: " << (used - before) / kLocks
      << " B per lock";
  EXPECT_EQ(cell.Load(), static_cast<std::uint64_t>(1 + kLocks * kThreads));
#endif
}

}  // namespace
}  // namespace rwle
