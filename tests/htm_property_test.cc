// Property-style tests of the HTM fabric: parameterized capacity
// boundaries, line aliasing (false sharing), sequential oracles,
// multi-threaded stress with atomicity counting, and conflict detection for
// thread slots whose reader bits live in an overflow plane.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_registry.h"
#include "src/htm/htm_runtime.h"
#include "src/htm/thread_state.h"
#include "src/memory/tx_var.h"

namespace rwle {
namespace {

HtmRuntime& Rt() { return HtmRuntime::Global(); }

struct alignas(kCacheLineBytes) Cell {
  TxVar<std::uint64_t> v;
};

// Number of distinct conflict-table slots the cells' lines map to. Distinct
// addresses can alias to one slot (the table models L2 way-aliasing), and
// capacity is counted in slots, not addresses.
std::uint32_t DistinctLineSlots(const std::vector<Cell>& cells) {
  std::set<std::uint32_t> indices;
  for (const Cell& cell : cells) {
    indices.insert(Rt().conflict_table().IndexFor(&cell.v));
  }
  return static_cast<std::uint32_t>(indices.size());
}

class ConfigSaver : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = Rt().config(); }
  void TearDown() override { Rt().set_config(saved_); }
  HtmConfig saved_;
};

// --- Capacity boundary sweep -------------------------------------------------

// (capacity, footprint) -> abort expected iff footprint > capacity.
class ReadCapacityBoundaryTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {
 protected:
  void SetUp() override { saved_ = Rt().config(); }
  void TearDown() override { Rt().set_config(saved_); }
  HtmConfig saved_;
};

TEST_P(ReadCapacityBoundaryTest, AbortsExactlyAboveCapacity) {
  const auto [capacity, footprint] = GetParam();
  HtmConfig config = Rt().config();
  config.max_read_lines = capacity;
  Rt().set_config(config);

  ScopedThreadSlot slot;
  std::vector<Cell> cells(footprint);
  // Capacity is tracked in conflict-table line slots; distinct addresses can
  // alias to one slot (modeled way-aliasing), so derive the expected
  // footprint from the table indices rather than the cell count.
  const std::uint32_t distinct_lines = DistinctLineSlots(cells);
  bool aborted = false;
  try {
    Rt().TxBegin(TxKind::kHtm);
    for (auto& cell : cells) {
      (void)cell.v.Load();
    }
    Rt().TxCommit();
  } catch (const TxAbortException& abort) {
    aborted = true;
    EXPECT_EQ(abort.cause(), AbortCause::kCapacityRead);
  }
  EXPECT_EQ(aborted, distinct_lines > capacity)
      << "capacity=" << capacity << " footprint=" << footprint
      << " distinct_lines=" << distinct_lines;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReadCapacityBoundaryTest,
    ::testing::Values(std::make_tuple(1u, 1u), std::make_tuple(1u, 2u),
                      std::make_tuple(4u, 4u), std::make_tuple(4u, 5u),
                      std::make_tuple(16u, 16u), std::make_tuple(16u, 17u),
                      std::make_tuple(64u, 64u), std::make_tuple(64u, 65u)));

class WriteCapacityBoundaryTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {
 protected:
  void SetUp() override { saved_ = Rt().config(); }
  void TearDown() override { Rt().set_config(saved_); }
  HtmConfig saved_;
};

TEST_P(WriteCapacityBoundaryTest, AbortsExactlyAboveCapacityForBothKinds) {
  const auto [capacity, footprint] = GetParam();
  HtmConfig config = Rt().config();
  config.max_write_lines = capacity;
  Rt().set_config(config);

  ScopedThreadSlot slot;
  for (const TxKind kind : {TxKind::kHtm, TxKind::kRot}) {
    std::vector<Cell> cells(footprint);
    const std::uint32_t distinct_lines = DistinctLineSlots(cells);
    bool aborted = false;
    try {
      Rt().TxBegin(kind);
      for (auto& cell : cells) {
        cell.v.Store(1);
      }
      Rt().TxCommit();
    } catch (const TxAbortException& abort) {
      aborted = true;
      EXPECT_EQ(abort.cause(), AbortCause::kCapacityWrite);
    }
    EXPECT_EQ(aborted, distinct_lines > capacity)
        << "capacity=" << capacity << " footprint=" << footprint
        << " distinct_lines=" << distinct_lines;
    // Either all stores landed or none did.
    for (auto& cell : cells) {
      EXPECT_EQ(cell.v.LoadDirect(), aborted ? 0u : 1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WriteCapacityBoundaryTest,
    ::testing::Values(std::make_tuple(1u, 1u), std::make_tuple(1u, 2u),
                      std::make_tuple(8u, 8u), std::make_tuple(8u, 9u),
                      std::make_tuple(32u, 32u), std::make_tuple(32u, 33u)));

// --- Line aliasing / false sharing -------------------------------------------

TEST_F(ConfigSaver, CellsOnOneLineShareAConflictSlot) {
  // Two TxVars packed into the same 128-byte line must conflict as a unit.
  struct alignas(kCacheLineBytes) PackedPair {
    TxVar<std::uint64_t> a;
    TxVar<std::uint64_t> b;
  };
  PackedPair pair;
  std::atomic<int> phase{0};

  std::thread writer([&] {
    ScopedThreadSlot slot;
    Rt().TxBegin(TxKind::kHtm);
    pair.a.Store(1);  // claims the line
    phase.store(1);
    while (phase.load() != 2) {
      std::this_thread::yield();
    }
    EXPECT_THROW(Rt().TxCommit(), TxAbortException);
  });

  while (phase.load() != 1) {
    std::this_thread::yield();
  }
  // Non-transactional read of the *other* cell on the same line: dooms the
  // writer -- false sharing, exactly like hardware.
  EXPECT_EQ(pair.b.Load(), 0u);
  phase.store(2);
  writer.join();
}

TEST_F(ConfigSaver, TwoCellsOnOneLineCountOnceForCapacity) {
  HtmConfig config = Rt().config();
  config.max_read_lines = 1;
  Rt().set_config(config);

  struct alignas(kCacheLineBytes) PackedPair {
    TxVar<std::uint64_t> a;
    TxVar<std::uint64_t> b;
  };
  PackedPair pair;

  ScopedThreadSlot slot;
  Rt().TxBegin(TxKind::kHtm);
  (void)pair.a.Load();
  (void)pair.b.Load();  // same line: no second capacity charge
  Rt().TxCommit();
}

// --- Sequential oracle --------------------------------------------------------

TEST_F(ConfigSaver, RandomTransactionalOpsMatchPlainArrayOracle) {
  ScopedThreadSlot slot;
  constexpr int kCells = 32;
  constexpr int kOps = 4000;
  std::vector<Cell> cells(kCells);
  std::uint64_t oracle[kCells] = {};

  Rng rng(12345);
  for (int op = 0; op < kOps; ++op) {
    const auto kind = rng.NextBool(0.5) ? TxKind::kHtm : TxKind::kRot;
    const std::uint64_t i = rng.NextBelow(kCells);
    const std::uint64_t j = rng.NextBelow(kCells);
    const bool commit = rng.NextBool(0.8);
    Rt().TxBegin(kind);
    const std::uint64_t sum = cells[i].v.Load() + cells[j].v.Load();
    cells[i].v.Store(sum + 1);
    cells[j].v.Store(sum + 2);
    if (commit) {
      Rt().TxCommit();
      const std::uint64_t oracle_sum = oracle[i] + oracle[j];
      oracle[i] = oracle_sum + 1;
      oracle[j] = oracle_sum + 2;  // j may equal i; matches store order
      if (i == j) {
        oracle[i] = oracle_sum + 2;
      }
    } else {
      Rt().TxCancel();
    }
  }
  for (int c = 0; c < kCells; ++c) {
    EXPECT_EQ(cells[c].v.LoadDirect(), oracle[c]) << "cell " << c;
  }
}

// --- Multi-threaded atomicity counting ----------------------------------------

TEST_F(ConfigSaver, HtmCommittedIncrementsAreExactlyPreserved) {
  // Threads increment a shared counter with *regular* transactions (tracked
  // loads): the final counter must equal the number of successful commits.
  constexpr int kThreads = 4;
  constexpr int kCommitsPerThread = 300;
  TxVar<std::uint64_t> counter(0);
  std::atomic<std::uint64_t> committed{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ScopedThreadSlot slot;
      int mine = 0;
      while (mine < kCommitsPerThread) {
        try {
          Rt().TxBegin(TxKind::kHtm);
          counter.Store(counter.Load() + 1);
          Rt().TxCommit();
          ++mine;
        } catch (const TxAbortException&) {
        }
      }
      committed.fetch_add(mine);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(committed.load(), static_cast<std::uint64_t>(kThreads) * kCommitsPerThread);
  EXPECT_EQ(counter.LoadDirect(), committed.load());
}

TEST_F(ConfigSaver, UnserializedConcurrentRotsMayLoseUpdates) {
  // The weaker ROT semantics the whole RW-LE design revolves around: ROT
  // loads are untracked, so two concurrent ROT read-modify-writes can both
  // commit off the same stale read (lost update). This is why Algorithm 2
  // serializes ROT writers with the global lock. The fabric must reproduce
  // the weakness: the counter may fall behind the commit count, but can
  // never exceed it, and every individual commit is still all-or-nothing.
  constexpr int kThreads = 4;
  constexpr int kCommitsPerThread = 300;
  TxVar<std::uint64_t> counter(0);
  std::atomic<std::uint64_t> committed{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ScopedThreadSlot slot;
      int mine = 0;
      while (mine < kCommitsPerThread) {
        try {
          Rt().TxBegin(TxKind::kRot);
          counter.Store(counter.Load() + 1);
          Rt().TxCommit();
          ++mine;
        } catch (const TxAbortException&) {
        }
      }
      committed.fetch_add(mine);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_LE(counter.LoadDirect(), committed.load());
  EXPECT_GT(counter.LoadDirect(), 0u);
}

TEST_F(ConfigSaver, MixedTxAndNonTxStoresNeverTear) {
  // One thread stores non-transactionally, others transactionally; a cell
  // pair updated together must never be observed out of sync by more than
  // the writers' update delta.
  Cell x, y;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};

  std::thread tx_writer([&] {
    ScopedThreadSlot slot;
    for (std::uint64_t i = 0; i < 400; ++i) {
      for (;;) {
        try {
          Rt().TxBegin(TxKind::kHtm);
          const std::uint64_t v = x.v.Load();
          x.v.Store(v + 1);
          y.v.Store(v + 1);
          Rt().TxCommit();
          break;
        } catch (const TxAbortException&) {
        }
      }
    }
    stop.store(true);
  });

  std::thread checker([&] {
    ScopedThreadSlot slot;
    while (!stop.load()) {
      // Non-transactional paired read: y sampled after x. Because commits
      // are aggregate, y can only be >= x's sampled value... and at most
      // ahead by however many commits landed in between -- but never
      // *behind* it.
      const std::uint64_t sampled_x = x.v.Load();
      const std::uint64_t sampled_y = y.v.Load();
      if (sampled_y < sampled_x) {
        violations.fetch_add(1);
      }
    }
  });

  tx_writer.join();
  checker.join();
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(x.v.LoadDirect(), 400u);
  EXPECT_EQ(y.v.LoadDirect(), 400u);
}

// --- Preemption model ----------------------------------------------------------

TEST_F(ConfigSaver, PreemptionPeriodZeroDisablesYielding) {
  HtmConfig config = Rt().config();
  config.yield_access_period = 0;
  Rt().set_config(config);
  ScopedThreadSlot slot;
  TxVar<std::uint64_t> cell(0);
  for (int i = 0; i < 1000; ++i) {
    cell.Store(cell.Load() + 1);  // must not crash or yield-loop
  }
  EXPECT_EQ(cell.LoadDirect(), 1000u);
}

// --- Overflow reader planes ----------------------------------------------------

// Holds every registry slot below 64 for the duration of a case, so the next
// thread to register reads through reader word 1 -- the first overflow plane
// of the conflict table, which no run of 64 or fewer threads touches.
class OverflowPlaneTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (;;) {
      const std::uint32_t slot = ThreadRegistry::Global().Register();
      if (slot >= 64) {
        ThreadRegistry::Global().Unregister(slot);
        break;
      }
      held_.push_back(slot);
    }
  }
  void TearDown() override {
    for (const std::uint32_t slot : held_) {
      ThreadRegistry::Global().Unregister(slot);
    }
  }

  struct ReaderOutcome {
    std::uint32_t slot = kInvalidThreadSlot;
    bool bit_set_while_reading = false;
    bool bit_clear_after = false;
    bool committed = false;
    AbortCause cause = AbortCause::kNone;
  };

  // A reader thread (slot >= 64) loads `cell` in an HTM transaction and
  // holds it open while `conflict` runs on the calling thread; then it
  // tries to commit.
  template <typename Conflict>
  ReaderOutcome ReadAcross(Cell& cell, Conflict conflict) {
    ReaderOutcome outcome;
    ConflictTable& table = Rt().conflict_table();
    const std::uint32_t index = table.IndexFor(&cell.v);
    std::atomic<int> stage{0};
    std::thread reader([&] {
      const ScopedThreadSlot slot;
      outcome.slot = slot.slot();
      try {
        Rt().TxBegin(TxKind::kHtm);
        (void)cell.v.Load();
        outcome.bit_set_while_reading = table.TestReaderBit(index, slot.slot());
        stage.store(1);
        while (stage.load() != 2) {
          std::this_thread::yield();
        }
        Rt().TxCommit();
        outcome.committed = true;
      } catch (const TxAbortException& abort) {
        outcome.cause = abort.cause();
      }
      outcome.bit_clear_after = !table.TestReaderBit(index, slot.slot());
    });
    while (stage.load() != 1) {
      std::this_thread::yield();
    }
    conflict();
    stage.store(2);
    reader.join();
    return outcome;
  }

  std::vector<std::uint32_t> held_;
};

TEST_F(OverflowPlaneTest, NonTxStoreDoomsAHighSlotReader) {
  Cell cell;
  // The calling thread is unregistered, so its store is non-transactional.
  const ReaderOutcome outcome = ReadAcross(cell, [&] { cell.v.Store(1); });
  EXPECT_GE(outcome.slot, 64u);
  EXPECT_TRUE(outcome.bit_set_while_reading);
  EXPECT_FALSE(outcome.committed);
  EXPECT_EQ(outcome.cause, AbortCause::kConflictNonTx);
  EXPECT_TRUE(outcome.bit_clear_after);
  EXPECT_EQ(cell.v.LoadDirect(), 1u);
}

TEST_F(OverflowPlaneTest, ConflictingHtmWriterDoomsAHighSlotReader) {
  Cell cell;
  bool writer_committed = false;
  const ReaderOutcome outcome = ReadAcross(cell, [&] {
    std::thread writer([&] {
      const ScopedThreadSlot slot;
      Rt().TxBegin(TxKind::kHtm);
      cell.v.Store(1);
      Rt().TxCommit();
      writer_committed = true;
    });
    writer.join();
  });
  EXPECT_GE(outcome.slot, 64u);
  EXPECT_TRUE(outcome.bit_set_while_reading);
  EXPECT_TRUE(writer_committed);
  EXPECT_FALSE(outcome.committed);
  EXPECT_EQ(outcome.cause, AbortCause::kConflictTx);
  EXPECT_TRUE(outcome.bit_clear_after);
  EXPECT_EQ(cell.v.LoadDirect(), 1u);
}

}  // namespace
}  // namespace rwle
