// Behavioural tests for the FAIR variant (§3.3): NS writers block new
// readers; a reader that entered *after* the writer's acquisition does not
// extend the writer's quiescence wait (no deadlock between the two); and
// write effects are visible to the blocked reader once released.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/htm/thread_state.h"
#include "src/memory/tx_var.h"
#include "src/rwle/rwle_lock.h"

namespace rwle {
namespace {

RwLePolicy FairNsOnlyPolicy() {
  // Straight to the NS path: the fairness machinery only engages there.
  RwLePolicy policy;
  policy.variant = RwLeVariant::kFair;
  policy.max_rot_retries = 0;
  policy.max_htm_retries = 0;
  return policy;
}

TEST(FairnessTest, NsWriterBlocksNewReadersUntilRelease) {
  RwLeLock lock(FairNsOnlyPolicy());
  TxVar<std::uint64_t> cell(0);
  std::atomic<int> phase{0};
  std::atomic<bool> reader_ran{false};

  std::thread writer([&] {
    ScopedThreadSlot slot;
    lock.Write([&] {
      cell.Store(7);
      phase.store(1);
      while (phase.load() != 2) {
        std::this_thread::yield();
      }
    });
  });

  while (phase.load() != 1) {
    std::this_thread::yield();
  }
  std::thread reader([&] {
    ScopedThreadSlot slot;
    std::uint64_t seen = 0;
    lock.Read([&] {
      seen = cell.Load();
      reader_ran.store(true);
    });
    EXPECT_EQ(seen, 7u);  // blocked reader sees the completed write
  });

  // The reader must be parked at entry while the NS writer holds the lock
  // (its epoch clock is odd, but its published lock-word copy carries the
  // writer's version, which is what exempts it from the writer's wait set).
  for (int i = 0; i < 200; ++i) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(reader_ran.load());

  phase.store(2);
  writer.join();
  reader.join();
  EXPECT_TRUE(reader_ran.load());
}

TEST(FairnessTest, WriterWaitsForPreexistingReader) {
  // The complementary guarantee: a reader that entered *before* the writer
  // acquired must be drained (its copied version is older).
  RwLeLock lock(FairNsOnlyPolicy());
  TxVar<std::uint64_t> cell(0);
  std::atomic<int> phase{0};
  std::atomic<bool> write_done{false};

  std::thread reader([&] {
    ScopedThreadSlot slot;
    lock.Read([&] {
      phase.store(1);
      while (phase.load() != 2) {
        std::this_thread::yield();
      }
    });
  });

  while (phase.load() != 1) {
    std::this_thread::yield();
  }
  std::thread writer([&] {
    ScopedThreadSlot slot;
    lock.Write([&] { cell.Store(1); });
    write_done.store(true);
  });

  for (int i = 0; i < 200; ++i) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(write_done.load());  // still draining the pre-existing reader

  phase.store(2);
  writer.join();
  reader.join();
  EXPECT_TRUE(write_done.load());
  EXPECT_EQ(cell.LoadDirect(), 1u);
}

TEST(FairnessTest, AlternatingReadersAndWritersMakeProgress) {
  RwLeLock lock(FairNsOnlyPolicy());
  TxVar<std::uint64_t> cell(0);
  std::atomic<bool> stop{false};
  std::atomic<bool> reader_started{false};
  std::atomic<std::uint64_t> reads{0};

  // Handshake so the two really alternate: the writer starts only once the
  // reader runs, and every 100 writes it waits, outside the lock, for the
  // reader to complete a read. The wait is bounded, so a lock that starved
  // the reader fails the assertion below instead of hanging.
  std::thread writer([&] {
    ScopedThreadSlot slot;
    while (!reader_started.load()) {
      std::this_thread::yield();
    }
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    std::uint64_t reads_seen = reads.load();
    for (int i = 0; i < 400; ++i) {
      lock.Write([&] { cell.Store(cell.Load() + 1); });
      if (i % 4 == 0) {
        std::this_thread::yield();
      }
      if (i % 100 == 99) {
        while (reads.load() == reads_seen && std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        reads_seen = reads.load();
      }
    }
    stop.store(true);
  });
  std::thread reader([&] {
    ScopedThreadSlot slot;
    reader_started.store(true);
    while (!stop.load()) {
      lock.Read([&] { (void)cell.Load(); });
      reads.fetch_add(1);
    }
  });

  writer.join();
  reader.join();
  EXPECT_EQ(cell.LoadDirect(), 400u);
  EXPECT_GT(reads.load(), 0u);  // readers were not starved out entirely
}

}  // namespace
}  // namespace rwle
