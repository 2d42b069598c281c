// Unit tests for the simulated HTM facility: buffering, aggregate-store
// commit, conflict dooming in every direction, capacity, ROT semantics,
// suspend/resume, and interrupt injection.
#include "src/htm/htm_runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/htm/thread_state.h"
#include "src/memory/paging_model.h"
#include "src/memory/tx_var.h"

#ifdef RWLE_ANALYSIS
#include "src/analysis/txsan.h"
#endif

namespace rwle {
namespace {

HtmRuntime& Rt() { return HtmRuntime::Global(); }

class HtmRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_config_ = Rt().config();
    Rt().set_interrupt_source(nullptr);
  }
  void TearDown() override {
    Rt().set_config(saved_config_);
    Rt().set_interrupt_source(nullptr);
  }
  HtmConfig saved_config_;
};

TEST_F(HtmRuntimeTest, NonTxAccessesWorkWithoutRegistration) {
  TxVar<std::uint64_t> cell(7);
  EXPECT_EQ(cell.Load(), 7u);
  cell.Store(9);
  EXPECT_EQ(cell.Load(), 9u);
}

TEST_F(HtmRuntimeTest, TransactionBuffersStoresUntilCommit) {
  ScopedThreadSlot slot;
  TxVar<std::uint64_t> cell(1);
  Rt().TxBegin(TxKind::kHtm);
  cell.Store(2);
  // Speculative: backing memory unchanged.
  EXPECT_EQ(cell.LoadDirect(), 1u);
  // Read-own-write.
  EXPECT_EQ(cell.Load(), 2u);
  Rt().TxCommit();
  EXPECT_EQ(cell.LoadDirect(), 2u);
}

TEST_F(HtmRuntimeTest, ExplicitAbortDiscardsStores) {
  ScopedThreadSlot slot;
  TxVar<std::uint64_t> cell(1);
  Rt().TxBegin(TxKind::kHtm);
  cell.Store(2);
  EXPECT_THROW(Rt().TxAbort(AbortCause::kExplicit), TxAbortException);
  EXPECT_EQ(cell.LoadDirect(), 1u);
  EXPECT_EQ(cell.Load(), 1u);  // non-tx load after abort
}

TEST_F(HtmRuntimeTest, TxCancelIsSilentAndDiscards) {
  ScopedThreadSlot slot;
  TxVar<std::uint64_t> cell(1);
  Rt().TxBegin(TxKind::kHtm);
  cell.Store(5);
  Rt().TxCancel();
  EXPECT_EQ(cell.LoadDirect(), 1u);
  EXPECT_FALSE(Rt().InTx());
}

TEST_F(HtmRuntimeTest, CommitAfterCancelledEpochStartsFreshTransaction) {
  ScopedThreadSlot slot;
  TxVar<std::uint64_t> cell(0);
  Rt().TxBegin(TxKind::kHtm);
  cell.Store(1);
  Rt().TxCancel();
  Rt().TxBegin(TxKind::kHtm);
  cell.Store(2);
  Rt().TxCommit();
  EXPECT_EQ(cell.LoadDirect(), 2u);
}

TEST_F(HtmRuntimeTest, ReadCapacityAbortIsPersistent) {
  ScopedThreadSlot slot;
  HtmConfig config = Rt().config();
  config.max_read_lines = 4;
  Rt().set_config(config);

  // Each TxVar is alone on its line via alignment of the array elements.
  struct alignas(kCacheLineBytes) Cell {
    TxVar<std::uint64_t> v;
  };
  std::vector<Cell> cells(10);

  Rt().TxBegin(TxKind::kHtm);
  bool aborted = false;
  try {
    for (auto& cell : cells) {
      (void)cell.v.Load();
    }
  } catch (const TxAbortException& abort) {
    aborted = true;
    EXPECT_EQ(abort.cause(), AbortCause::kCapacityRead);
    EXPECT_TRUE(abort.persistent());
  }
  EXPECT_TRUE(aborted);
  EXPECT_FALSE(Rt().InTx());
}

TEST_F(HtmRuntimeTest, WriteCapacityAbortIsPersistent) {
  ScopedThreadSlot slot;
  HtmConfig config = Rt().config();
  config.max_write_lines = 4;
  Rt().set_config(config);

  struct alignas(kCacheLineBytes) Cell {
    TxVar<std::uint64_t> v;
  };
  std::vector<Cell> cells(10);

  Rt().TxBegin(TxKind::kHtm);
  bool aborted = false;
  try {
    for (auto& cell : cells) {
      cell.v.Store(1);
    }
  } catch (const TxAbortException& abort) {
    aborted = true;
    EXPECT_EQ(abort.cause(), AbortCause::kCapacityWrite);
  }
  EXPECT_TRUE(aborted);
  // All buffered stores discarded.
  for (auto& cell : cells) {
    EXPECT_EQ(cell.v.LoadDirect(), 0u);
  }
}

TEST_F(HtmRuntimeTest, RotLoadsAreUntrackedByCapacity) {
  ScopedThreadSlot slot;
  HtmConfig config = Rt().config();
  config.max_read_lines = 2;
  Rt().set_config(config);

  struct alignas(kCacheLineBytes) Cell {
    TxVar<std::uint64_t> v;
  };
  std::vector<Cell> cells(50);

  Rt().TxBegin(TxKind::kRot);
  std::uint64_t sum = 0;
  for (auto& cell : cells) {
    sum += cell.v.Load();  // would capacity-abort an HTM transaction
  }
  Rt().TxCommit();
  EXPECT_EQ(sum, 0u);
}

TEST_F(HtmRuntimeTest, NonTxReadDoomsConflictingWriterEvenWhenSuspended) {
  TxVar<std::uint64_t> cell(10);
  std::atomic<int> phase{0};

  std::thread writer([&] {
    ScopedThreadSlot slot;
    Rt().TxBegin(TxKind::kHtm);
    cell.Store(20);
    Rt().TxSuspend();
    phase.store(1);
    while (phase.load() != 2) {
      std::this_thread::yield();
    }
    Rt().TxResume();
    EXPECT_THROW(Rt().TxCommit(), TxAbortException);  // doomed by the reader
    EXPECT_EQ(cell.LoadDirect(), 10u);
  });

  while (phase.load() != 1) {
    std::this_thread::yield();
  }
  // Uninstrumented reader: sees the pre-transaction value and kills the
  // suspended speculation (paper, Figure 2).
  EXPECT_EQ(cell.Load(), 10u);
  phase.store(2);
  writer.join();
}

TEST_F(HtmRuntimeTest, SuspendedWriterSeesOwnBufferedStores) {
  ScopedThreadSlot slot;
  TxVar<std::uint64_t> cell(1);
  Rt().TxBegin(TxKind::kHtm);
  cell.Store(2);
  Rt().TxSuspend();
  EXPECT_EQ(cell.Load(), 2u);  // own speculative value, non-transactionally
  Rt().TxResume();
  Rt().TxCommit();
  EXPECT_EQ(cell.LoadDirect(), 2u);
}

TEST_F(HtmRuntimeTest, TxStoreDoomsTransactionalReader) {
  TxVar<std::uint64_t> cell(0);
  std::atomic<int> phase{0};

  std::thread reader([&] {
    ScopedThreadSlot slot;
    Rt().TxBegin(TxKind::kHtm);
    (void)cell.Load();  // read set now contains the line
    phase.store(1);
    while (phase.load() != 2) {
      std::this_thread::yield();
    }
    EXPECT_THROW(
        {
          (void)cell.Load();  // discover doom
          Rt().TxCommit();
        },
        TxAbortException);
  });

  while (phase.load() != 1) {
    std::this_thread::yield();
  }
  {
    ScopedThreadSlot slot;
    Rt().TxBegin(TxKind::kHtm);
    cell.Store(42);  // store into the reader's read set -> dooms it
    Rt().TxCommit();
  }
  phase.store(2);
  reader.join();
  EXPECT_EQ(cell.LoadDirect(), 42u);
}

TEST_F(HtmRuntimeTest, TxLoadDoomsConflictingTxWriter) {
  TxVar<std::uint64_t> cell(5);
  std::atomic<int> phase{0};

  std::thread writer([&] {
    ScopedThreadSlot slot;
    Rt().TxBegin(TxKind::kHtm);
    cell.Store(6);
    phase.store(1);
    while (phase.load() != 2) {
      std::this_thread::yield();
    }
    EXPECT_THROW(Rt().TxCommit(), TxAbortException);
  });

  while (phase.load() != 1) {
    std::this_thread::yield();
  }
  {
    ScopedThreadSlot slot;
    Rt().TxBegin(TxKind::kHtm);
    EXPECT_EQ(cell.Load(), 5u);  // requester wins: dooms the writer
    Rt().TxCommit();
  }
  phase.store(2);
  writer.join();
  EXPECT_EQ(cell.LoadDirect(), 5u);
}

TEST_F(HtmRuntimeTest, NonTxStoreDoomsWriterAndLandsInBacking) {
  TxVar<std::uint64_t> cell(1);
  std::atomic<int> phase{0};

  std::thread writer([&] {
    ScopedThreadSlot slot;
    Rt().TxBegin(TxKind::kHtm);
    cell.Store(2);
    phase.store(1);
    while (phase.load() != 2) {
      std::this_thread::yield();
    }
    EXPECT_THROW(Rt().TxCommit(), TxAbortException);
  });

  while (phase.load() != 1) {
    std::this_thread::yield();
  }
  cell.Store(99);  // non-transactional store
  phase.store(2);
  writer.join();
  EXPECT_EQ(cell.LoadDirect(), 99u);
}

TEST_F(HtmRuntimeTest, AggregateStoreCommitPublishesAllOrNothing) {
  // A reader polling two cells must never observe x updated but not y
  // (within a single committed transaction's writes, given it reads y
  // after x and the writer writes x and y together).
  struct alignas(kCacheLineBytes) Cell {
    TxVar<std::uint64_t> v;
  };
  Cell x, y;
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    ScopedThreadSlot slot;
    for (std::uint64_t i = 1; i <= 300; ++i) {
      for (;;) {
        try {
          Rt().TxBegin(TxKind::kHtm);
          x.v.Store(i);
          y.v.Store(i);
          Rt().TxCommit();
          break;
        } catch (const TxAbortException&) {
        }
      }
    }
    stop.store(true);
  });

  std::thread reader([&] {
    ScopedThreadSlot slot;
    while (!stop.load()) {
      // y is written before x inside the tx writeback? Order unknown --
      // but aggregate store means: if we see y == i, a later read of x
      // must give >= i.
      const std::uint64_t before = y.v.Load();
      const std::uint64_t after = x.v.Load();
      EXPECT_GE(after, before);
    }
  });

  writer.join();
  reader.join();
  EXPECT_EQ(x.v.LoadDirect(), 300u);
  EXPECT_EQ(y.v.LoadDirect(), 300u);
}

TEST_F(HtmRuntimeTest, PagingInterruptAbortsActiveTransaction) {
  ScopedThreadSlot slot;
  PagingModel paging(PagingModel::Config{.tlb_entries = 2, .page_shift = 12});
  Rt().set_interrupt_source(&paging);

  // Spread cells across many pages to force misses.
  constexpr int kCells = 8;
  std::vector<char> arena(kCells * 8192);
  std::vector<TxVar<std::uint64_t>*> vars;
  for (int i = 0; i < kCells; ++i) {
    vars.push_back(new (&arena[static_cast<std::size_t>(i) * 8192]) TxVar<std::uint64_t>(0));
  }

  bool aborted = false;
  try {
    Rt().TxBegin(TxKind::kHtm);
    for (auto* var : vars) {
      (void)var->Load();
    }
    Rt().TxCommit();
  } catch (const TxAbortException& abort) {
    aborted = true;
    EXPECT_EQ(abort.cause(), AbortCause::kInterrupt);
    EXPECT_FALSE(abort.persistent());
  }
  EXPECT_TRUE(aborted);
  EXPECT_GT(paging.TotalFaults(), 0u);
  Rt().set_interrupt_source(nullptr);
}

TEST_F(HtmRuntimeTest, CellCasDoomsSubscribers) {
  std::atomic<std::uint64_t> lockish{0};  // raw fabric cell, like LockWord's
  std::atomic<int> phase{0};

  std::thread subscriber([&] {
    ScopedThreadSlot slot;
    Rt().TxBegin(TxKind::kHtm);
    EXPECT_EQ(Rt().CellLoad(&lockish), 0u);  // subscribe
    phase.store(1);
    while (phase.load() != 2) {
      std::this_thread::yield();
    }
    EXPECT_THROW(Rt().TxCommit(), TxAbortException);
  });

  while (phase.load() != 1) {
    std::this_thread::yield();
  }
  // Acquire "the lock" non-transactionally: must doom the subscriber.
  EXPECT_TRUE(Rt().CellCas(&lockish, 0, 1));
  phase.store(2);
  subscriber.join();
}

TEST_F(HtmRuntimeTest, DoomedTransactionAbortsAtNextAccessInsteadOfWritingThrough) {
  // Regression: when another thread dooms a transaction, the victim's next
  // fabric store must raise the abort -- NOT fall through to the
  // non-transactional path and write backing memory directly (which would
  // partially apply the dead attempt).
  TxVar<std::uint64_t> a(0);
  TxVar<std::uint64_t> b(0);
  std::atomic<int> phase{0};

  std::thread victim([&] {
    ScopedThreadSlot slot;
    Rt().TxBegin(TxKind::kRot);
    a.Store(1);
    phase.store(1);
    while (phase.load() != 2) {
      std::this_thread::yield();
    }
    // We are doomed now; this store must throw, and `b` must stay 0.
    EXPECT_THROW(b.Store(1), TxAbortException);
  });

  while (phase.load() != 1) {
    std::this_thread::yield();
  }
  a.Store(42);  // non-tx store into the victim's write set -> dooms it
  phase.store(2);
  victim.join();
  EXPECT_EQ(a.LoadDirect(), 42u);
  EXPECT_EQ(b.LoadDirect(), 0u);
}

TEST_F(HtmRuntimeTest, DoomedSuspendedEscapeRegionKeepsRunning) {
  // Dual of the above: while *suspended*, the thread's accesses are escape
  // actions and must keep executing non-transactionally even after a doom;
  // the abort surfaces at commit.
  TxVar<std::uint64_t> a(0);
  TxVar<std::uint64_t> scratch(0);
  std::atomic<int> phase{0};

  std::thread victim([&] {
    ScopedThreadSlot slot;
    Rt().TxBegin(TxKind::kHtm);
    a.Store(1);
    Rt().TxSuspend();
    phase.store(1);
    while (phase.load() != 2) {
      std::this_thread::yield();
    }
    // Doomed, but suspended: escape accesses still work.
    scratch.Store(7);
    EXPECT_EQ(scratch.Load(), 7u);
    Rt().TxResume();
    EXPECT_THROW(Rt().TxCommit(), TxAbortException);
  });

  while (phase.load() != 1) {
    std::this_thread::yield();
  }
  a.Store(42);
  phase.store(2);
  victim.join();
  EXPECT_EQ(a.LoadDirect(), 42u);
  EXPECT_EQ(scratch.LoadDirect(), 7u);
}

// --- FORTH-style limited tracking (HtmConfig::tracked_read_lines etc.) ---
//
// Only the first K distinct lines are conflict-tracked; line K+1 is
// invisible to detection, so a conflicting store there neither dooms the
// reader nor registers anywhere. The txsan oracle must agree that this is
// *modeled hardware behavior*, not a data race: in analysis builds the
// _analysis ctest variant runs these same cases with abort_on_violation on,
// and the explicit violation-count delta below pins it down.

TEST_F(HtmRuntimeTest, LimitedTrackingIgnoresConflictBeyondTrackedLines) {
  HtmConfig config = Rt().config();
  config.tracked_read_lines = 2;
  Rt().set_config(config);

#ifdef RWLE_ANALYSIS
  const std::uint64_t violations_before = txsan::TxSan::Global().violation_count();
#endif

  struct alignas(kCacheLineBytes) Cell {
    TxVar<std::uint64_t> v;
  };
  std::vector<Cell> cells(3);
  std::atomic<int> phase{0};

  std::thread reader([&] {
    ScopedThreadSlot slot;
    Rt().TxBegin(TxKind::kHtm);
    (void)cells[0].v.Load();  // tracked line 1
    (void)cells[1].v.Load();  // tracked line 2
    EXPECT_EQ(cells[2].v.Load(), 0u);  // line K+1: untracked
    phase.store(1);
    while (phase.load() != 2) {
      std::this_thread::yield();
    }
    // The conflicting store on the untracked line did not doom us -- a
    // re-read even observes the new value mid-transaction (torn snapshot),
    // and the commit goes through. This is the limited-tracking hazard the
    // portability matrix measures; a full-tracking facility would have
    // doomed the transaction at the store.
    EXPECT_EQ(cells[2].v.Load(), 99u);
    Rt().TxCommit();
  });

  while (phase.load() != 1) {
    std::this_thread::yield();
  }
  cells[2].v.Store(99);  // non-tx store into the *untracked* part of the scan
  phase.store(2);
  reader.join();

#ifdef RWLE_ANALYSIS
  // Losing the conflict is the configured TM model at work, not a race:
  // the oracle's write mirror marks untracked entries exempt.
  EXPECT_EQ(txsan::TxSan::Global().violation_count(), violations_before);
#endif
}

TEST_F(HtmRuntimeTest, LimitedTrackingStillDoomsWithinTrackedLines) {
  HtmConfig config = Rt().config();
  config.tracked_read_lines = 2;
  Rt().set_config(config);

  struct alignas(kCacheLineBytes) Cell {
    TxVar<std::uint64_t> v;
  };
  std::vector<Cell> cells(3);
  std::atomic<int> phase{0};

  std::thread reader([&] {
    ScopedThreadSlot slot;
    Rt().TxBegin(TxKind::kHtm);
    (void)cells[0].v.Load();  // tracked
    (void)cells[1].v.Load();  // tracked
    (void)cells[2].v.Load();  // untracked
    phase.store(1);
    while (phase.load() != 2) {
      std::this_thread::yield();
    }
    // Same scan, but the store hit a *tracked* line: doomed as usual.
    EXPECT_THROW(
        {
          (void)cells[0].v.Load();
          Rt().TxCommit();
        },
        TxAbortException);
  });

  while (phase.load() != 1) {
    std::this_thread::yield();
  }
  cells[0].v.Store(99);
  phase.store(2);
  reader.join();
}

TEST_F(HtmRuntimeTest, LimitedTrackingDisablesCapacityAborts) {
  // A limited-tracking facility does not *abort* past its budget -- it
  // silently stops tracking (the whole point of the hazard). Both capacity
  // limits are set below the footprint to prove neither fires, and every
  // buffered store must still be written back on commit.
  ScopedThreadSlot slot;
  HtmConfig config = Rt().config();
  config.max_read_lines = 4;
  config.max_write_lines = 4;
  config.tracked_read_lines = 4;
  config.tracked_write_lines = 4;
  Rt().set_config(config);

  struct alignas(kCacheLineBytes) Cell {
    TxVar<std::uint64_t> v;
  };
  std::vector<Cell> cells(10);

  Rt().TxBegin(TxKind::kHtm);
  for (auto& cell : cells) {
    (void)cell.v.Load();  // 10 lines > max_read_lines: no kCapacityRead
  }
  for (auto& cell : cells) {
    cell.v.Store(7);  // 10 lines > max_write_lines: no kCapacityWrite
  }
  Rt().TxCommit();
  for (auto& cell : cells) {
    EXPECT_EQ(cell.v.LoadDirect(), 7u);
  }
}

// A slot's block outlives its occupant: the next thread to get the slot
// inherits the same context and with it the epoch, so an owner token of the
// previous occupant names a transaction that is over and cannot doom the
// new occupant's live one.
TEST_F(HtmRuntimeTest, RecycledSlotKeepsItsBlockAndEpoch) {
  struct alignas(kCacheLineBytes) Line {
    std::atomic<std::uint64_t> cell{0};
  };
  Line line;

  std::uint32_t slot_a = kInvalidThreadSlot;
  TxContext* context_a = nullptr;
  OwnerToken stale = 0;
  std::thread([&] {
    const ScopedThreadSlot slot;
    slot_a = slot.slot();
    context_a = Rt().CurrentContext();
    Rt().TxBegin(TxKind::kHtm);
    stale = context_a->CurrentToken();
    Rt().CellStore(&line.cell, 1);
    Rt().TxCommit();
  }).join();
  ASSERT_NE(stale, OwnerToken{0});

  // B runs one empty transaction, live across the stale-token access below.
  std::atomic<int> step{0};
  std::uint32_t slot_b = kInvalidThreadSlot;
  TxContext* context_b = nullptr;
  OwnerToken token_b = 0;
  bool committed = false;
  std::thread b([&] {
    const ScopedThreadSlot slot;
    slot_b = slot.slot();
    context_b = Rt().CurrentContext();
    Rt().TxBegin(TxKind::kHtm);
    token_b = context_b->CurrentToken();
    step.store(1);
    while (step.load() != 2) {
      std::this_thread::yield();
    }
    try {
      Rt().TxCommit();
      committed = true;
    } catch (const TxAbortException&) {
    }
  });
  while (step.load() != 1) {
    std::this_thread::yield();
  }
  // Leave A's stale token as the line's owner, as a doomed owner that has
  // not yet released its line would, and store to the line: the store must
  // try to doom the token's transaction, and find it over.
  Rt().conflict_table().SlotFor(&line.cell).writer().store(stale);
  Rt().CellStore(&line.cell, 2);
  const TxPhase phase_b = context_b->phase();
  step.store(2);
  b.join();
  Rt().conflict_table().SlotFor(&line.cell).writer().store(0);

  EXPECT_EQ(slot_b, slot_a);
  EXPECT_EQ(context_b, context_a);
  EXPECT_GT(OwnerTokenEpoch(token_b), OwnerTokenEpoch(stale));
  EXPECT_EQ(phase_b, TxPhase::kActive);
  EXPECT_TRUE(committed);
  EXPECT_EQ(line.cell.load(), 2u);
}

}  // namespace
}  // namespace rwle
