// txsan self-test: injects known semantic bugs into the fabric via the
// analysis-only fault-injection knobs and asserts that txsan detects each
// one, naming the violated invariant. Also checks that a clean contended
// workload reports zero violations (no false positives).
//
// Built only in RWLE_ANALYSIS configurations (see tests/CMakeLists.txt).

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/txsan.h"
#include "src/chop/chopped_section.h"
#include "src/htm/htm_runtime.h"
#include "src/htm/thread_state.h"
#include "src/memory/tx_var.h"
#include "src/rwle/rwle_lock.h"

#ifdef RWLE_SCHED
#include "src/sched/explore.h"
#include "src/sched/litmus.h"
#include "src/sched/schedule_trace.h"
#endif

namespace rwle {
namespace {

using txsan::Invariant;
using txsan::InvariantName;
using txsan::TxSan;

class TxSanSelfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TxSan::Options options;
    options.abort_on_violation = false;  // we inspect reports instead
    TxSan::Global().Enable(options, &HtmRuntime::Global());
    ClearInjections();
    TxSan::Global().ResetState();
  }

  void TearDown() override {
    ClearInjections();
    TxSan::Global().ResetState();
  }

  static void ClearInjections() {
    HtmRuntime::Global().fault_injection() = HtmRuntime::FaultInjection{};
  }

  static HtmRuntime::FaultInjection& Injection() {
    return HtmRuntime::Global().fault_injection();
  }

  // Runs `fn` on a fresh registered thread and joins it.
  template <typename Fn>
  static void RunRegistered(Fn&& fn) {
    std::thread worker([&fn] {
      const ScopedThreadSlot worker_slot;
      fn();
    });
    worker.join();
  }

  static void ExpectDetected(Invariant invariant) {
    EXPECT_TRUE(TxSan::Global().HasViolation(invariant))
        << "expected a violation of invariant " << InvariantName(invariant);
    // Every report must name its invariant (the harness greps for these).
    bool named = false;
    for (const txsan::Report& report : TxSan::Global().reports()) {
      if (report.invariant == invariant &&
          report.message.find(InvariantName(invariant)) != std::string::npos) {
        named = true;
      }
    }
    EXPECT_TRUE(named) << "report does not name " << InvariantName(invariant);
  }
};

// Injected bug 1: a conflicting non-transactional store skips the
// requester-wins doom CAS. The victim then commits over a stale footprint.
TEST_F(TxSanSelfTest, SkippedDoomIsCaughtAtCommit) {
  const ScopedThreadSlot main_slot;
  HtmRuntime& runtime = HtmRuntime::Global();
  TxVar<std::uint64_t> x;

  Injection().skip_requester_wins_doom = true;
  runtime.TxBegin(TxKind::kHtm);
  x.Store(1);  // buffered; claims the line for writing
  RunRegistered([&x] { x.Store(42); });  // conflicting store, doom skipped
  EXPECT_NO_THROW(runtime.TxCommit());   // the bug: commit succeeds anyway

  ExpectDetected(Invariant::kConflictNotDoomed);
}

// Injected bug 2: the aggregate-store write-back loop drops one entry.
TEST_F(TxSanSelfTest, DroppedWriteBackEntryIsCaught) {
  const ScopedThreadSlot main_slot;
  HtmRuntime& runtime = HtmRuntime::Global();
  TxVar<std::uint64_t> x;
  TxVar<std::uint64_t> y;

  Injection().drop_write_back_entry = true;
  runtime.TxBegin(TxKind::kHtm);
  x.Store(7);
  y.Store(9);
  runtime.TxCommit();

  ExpectDetected(Invariant::kCommitLostStore);
}

// Injected bug 3: a doomed/aborting transaction publishes its write buffer.
TEST_F(TxSanSelfTest, AbortWriteBackIsCaught) {
  const ScopedThreadSlot main_slot;
  HtmRuntime& runtime = HtmRuntime::Global();
  TxVar<std::uint64_t> x;

  Injection().write_back_on_abort = true;
  runtime.TxBegin(TxKind::kHtm);
  x.Store(7);
  EXPECT_THROW(runtime.TxAbort(AbortCause::kExplicit), TxAbortException);

  ExpectDetected(Invariant::kAbortedWriteBack);
}

// Injected bug 4: a speculative store leaks to real memory before commit,
// where a concurrent reader observes it.
TEST_F(TxSanSelfTest, LeakedSpeculativeStoreIsCaught) {
  const ScopedThreadSlot main_slot;
  HtmRuntime& runtime = HtmRuntime::Global();
  TxVar<std::uint64_t> x;

  Injection().leak_speculative_store = true;
  runtime.TxBegin(TxKind::kHtm);
  x.Store(7);  // buffered AND (bug) stored to real memory
  RunRegistered([&x] { (void)x.Load(); });  // foreign reader sees the leak
  EXPECT_THROW(runtime.TxAbort(AbortCause::kExplicit), TxAbortException);

  ExpectDetected(Invariant::kSpeculativeVisible);
}

// Injected bug 5: a rollback-only transaction tracks its loads.
TEST_F(TxSanSelfTest, RotTrackedReadSetIsCaught) {
  const ScopedThreadSlot main_slot;
  HtmRuntime& runtime = HtmRuntime::Global();
  TxVar<std::uint64_t> x;

  Injection().rot_tracks_reads = true;
  runtime.TxBegin(TxKind::kRot);
  (void)x.Load();  // (bug) joins the read set
  x.Store(1);      // keep the commit non-trivial
  runtime.TxCommit();

  ExpectDetected(Invariant::kRotReadSetNotEmpty);
}

// Injected bug 6: suspend releases the write-set line ownership, so the
// suspended footprint is no longer monitored for conflicts.
TEST_F(TxSanSelfTest, UnmonitoredSuspendedFootprintIsCaught) {
  const ScopedThreadSlot main_slot;
  HtmRuntime& runtime = HtmRuntime::Global();
  TxVar<std::uint64_t> x;

  Injection().unmonitor_on_suspend = true;
  runtime.TxBegin(TxKind::kHtm);
  x.Store(1);
  runtime.TxSuspend();  // (bug) drops the owner tokens
  runtime.TxResume();
  runtime.TxCommit();

  ExpectDetected(Invariant::kSuspendedUnmonitored);
}

// Injected bug 7: the RW-LE writer epilogue skips the quiescence scan, so
// in-flight readers can observe a mix of pre- and post-commit state.
TEST_F(TxSanSelfTest, SkippedQuiescenceIsCaught) {
  const ScopedThreadSlot main_slot;
  RwLeLock lock;
  TxVar<std::uint64_t> x;

  Injection().skip_quiescence = true;
  lock.Write([&x] { x.Store(1); });

  ExpectDetected(Invariant::kCommitWithoutQuiescence);
}

// Injected bug 8: a chained piece commit writes its captured stores through
// to real memory, exposing intermediate chain state before publication.
TEST_F(TxSanSelfTest, ChainEagerPiecePublishIsCaught) {
  const ScopedThreadSlot main_slot;
  RwLeLock lock;
  ChoppedSection chopped(lock);
  TxVar<std::uint64_t> x;

  Injection().chop_eager_piece_publish = true;
  chopped.Write(2, [&x](std::size_t piece) {
    if (piece == 0) {
      x.Store(7);  // captured by the chain; (bug) also hits memory
    }
  });

  ExpectDetected(Invariant::kSpeculativeVisible);
}

// Injected bug 9: chain publication skips one carryover entry, so the chain
// commits torn -- part of its write set never reaches real memory.
TEST_F(TxSanSelfTest, ChainDroppedPublishEntryIsCaught) {
  const ScopedThreadSlot main_slot;
  RwLeLock lock;
  ChoppedSection chopped(lock);
  TxVar<std::uint64_t> x;
  TxVar<std::uint64_t> y;

  Injection().chop_drop_publish_entry = true;
  chopped.Write(2, [&](std::size_t piece) {
    if (piece == 0) {
      x.Store(1);
    } else {
      y.Store(2);
    }
  });

  ExpectDetected(Invariant::kChainTornPublish);
}

// Injected bug 10: the chain publication window skips its (single, amortized)
// quiescence barrier, so in-flight readers can straddle the publication.
TEST_F(TxSanSelfTest, ChainSkippedQuiescenceIsCaught) {
  const ScopedThreadSlot main_slot;
  RwLeLock lock;
  ChoppedSection chopped(lock);
  TxVar<std::uint64_t> x;
  TxVar<std::uint64_t> y;

  Injection().skip_quiescence = true;
  chopped.Write(2, [&](std::size_t piece) {
    if (piece == 0) {
      x.Store(1);
    } else {
      y.Store(2);
    }
  });

  ExpectDetected(Invariant::kCommitWithoutQuiescence);
}

// Race detector: LoadDirect while a live foreign transaction holds the cell
// in its write set is flagged even without any actual value corruption.
TEST_F(TxSanSelfTest, DirectAccessDuringLiveTransactionIsCaught) {
  const ScopedThreadSlot main_slot;
  HtmRuntime& runtime = HtmRuntime::Global();
  TxVar<std::uint64_t> x;

  runtime.TxBegin(TxKind::kHtm);
  x.Store(1);
  RunRegistered([&x] { (void)x.LoadDirect(); });  // misuse: tx is live
  EXPECT_THROW(runtime.TxAbort(AbortCause::kExplicit), TxAbortException);

  ExpectDetected(Invariant::kDirectAccessDuringTx);
}

// Race detector: two registered threads StoreDirect the same cell with no
// synchronization edge between them. Detected deterministically: no
// happens-before path exists regardless of real interleaving.
TEST_F(TxSanSelfTest, UnsynchronizedDirectStoresAreCaught) {
  TxVar<std::uint64_t> x;
  std::atomic<int> ready{0};  // plain atomic: invisible to txsan, so the
                              // registration windows overlap without
                              // creating an analysis-level edge
  std::thread a([&] {
    const ScopedThreadSlot slot;
    ready.fetch_add(1);
    while (ready.load() < 2) {
    }
    x.StoreDirect(1);
    ready.fetch_add(1);
    while (ready.load() < 4) {
    }
  });
  std::thread b([&] {
    const ScopedThreadSlot slot;
    ready.fetch_add(1);
    while (ready.load() < 3) {
    }
    x.StoreDirect(2);
    ready.fetch_add(1);
  });
  a.join();
  b.join();

  ExpectDetected(Invariant::kDataRace);
}

// No false positives: a correct contended RW-LE workload must be violation
// free, and txsan must actually have observed it.
TEST_F(TxSanSelfTest, CleanContendedWorkloadHasNoViolations) {
  RwLeLock lock;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 400;
  std::vector<TxVar<std::uint64_t>> counters(kThreads);

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&lock, &counters, t] {
      const ScopedThreadSlot slot;
      for (int op = 0; op < kOpsPerThread; ++op) {
        if (op % 4 == 0) {
          lock.Write([&counters, t] {
            counters[static_cast<std::size_t>(t)].Store(
                counters[static_cast<std::size_t>(t)].Load() + 1);
          });
        } else {
          lock.Read([&counters] {
            std::uint64_t sum = 0;
            for (const auto& counter : counters) {
              sum += counter.Load();
            }
            (void)sum;
          });
        }
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }

  EXPECT_EQ(TxSan::Global().violation_count(), 0u);
  EXPECT_GT(TxSan::Global().events_observed(), 1000u);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(counters[static_cast<std::size_t>(t)].LoadDirect(),
              static_cast<std::uint64_t>(kOpsPerThread / 4));
  }
}

#ifdef RWLE_SCHED

// --- Deterministic-schedule mode ---------------------------------------------
//
// With the cooperative scheduler compiled in, each injected fault must be
// findable by systematic schedule exploration within a fixed budget -- the
// end-to-end guarantee rwle_explore sells. For every knob we explore the
// litmus workload whose instrumented paths reach the broken code, assert a
// violation surfaces, and replay the recorded schedule to prove the failure
// is byte-for-byte reproducible (identical trace hash, identical report).

struct SchedFaultCase {
  const char* name;      // knob, for failure messages
  bool HtmRuntime::FaultInjection::*knob;
  const char* workload;
  // Invariants an exploration may legitimately surface first for this knob
  // (a fault can materialize as a downstream invariant, e.g. a leaked
  // speculative store that later aborts reads as an aborted write-back).
  std::vector<Invariant> accepted;
  // Extra accepted failure signatures that are not invariant names -- faults
  // whose only symptom is a wrong outcome surface as "verify-failed".
  std::vector<std::string> accepted_signatures = {};
};

class TxSanSchedExploreTest : public TxSanSelfTest {
 protected:
  static void ExploreAndReplay(const SchedFaultCase& fault) {
    Injection().*fault.knob = true;
    const sched::LitmusSpec* spec = sched::FindLitmus(fault.workload);
    ASSERT_NE(spec, nullptr) << fault.workload;

    sched::ExploreOptions options;
    options.strategy = "random";
    options.schedules = 64;  // the fixed budget: every fault found within it
    options.seed = 1;
    const sched::ExploreResult result = sched::Explore(*spec, options);
    ASSERT_TRUE(result.failed)
        << fault.name << ": no violation within " << options.schedules << " schedules";
    bool accepted = false;
    for (const Invariant invariant : fault.accepted) {
      accepted |= result.failure == InvariantName(invariant);
    }
    for (const std::string& signature : fault.accepted_signatures) {
      accepted |= result.failure == signature;
    }
    EXPECT_TRUE(accepted) << fault.name << " surfaced as '" << result.failure << "'";

    std::string replay_failure;
    const sched::ScheduleTrace replayed =
        sched::Replay(*spec, result.failing_trace, &replay_failure);
    EXPECT_EQ(replayed.Hash(), result.failing_trace.Hash())
        << fault.name << ": replay diverged";
    EXPECT_EQ(replay_failure, result.failure) << fault.name;
  }
};

TEST_F(TxSanSchedExploreTest, FindsSkippedRequesterWinsDoom) {
  ExploreAndReplay({"skip_requester_wins_doom",
                    &HtmRuntime::FaultInjection::skip_requester_wins_doom, "conflict",
                    {Invariant::kConflictNotDoomed, Invariant::kAtomicCommit}});
}

TEST_F(TxSanSchedExploreTest, FindsDroppedWriteBackEntry) {
  ExploreAndReplay({"drop_write_back_entry",
                    &HtmRuntime::FaultInjection::drop_write_back_entry, "conflict",
                    {Invariant::kCommitLostStore, Invariant::kAtomicCommit}});
}

TEST_F(TxSanSchedExploreTest, FindsWriteBackOnAbort) {
  ExploreAndReplay({"write_back_on_abort",
                    &HtmRuntime::FaultInjection::write_back_on_abort, "conflict",
                    {Invariant::kAbortedWriteBack, Invariant::kAtomicCommit}});
}

TEST_F(TxSanSchedExploreTest, FindsLeakedSpeculativeStore) {
  ExploreAndReplay({"leak_speculative_store",
                    &HtmRuntime::FaultInjection::leak_speculative_store, "conflict",
                    {Invariant::kSpeculativeVisible, Invariant::kAbortedWriteBack,
                     Invariant::kAtomicCommit}});
}

TEST_F(TxSanSchedExploreTest, FindsRotTrackingReads) {
  ExploreAndReplay({"rot_tracks_reads", &HtmRuntime::FaultInjection::rot_tracks_reads,
                    "rot-conflict", {Invariant::kRotReadSetNotEmpty}});
}

TEST_F(TxSanSchedExploreTest, FindsUnmonitoredSuspend) {
  ExploreAndReplay({"unmonitor_on_suspend",
                    &HtmRuntime::FaultInjection::unmonitor_on_suspend, "inc-elided",
                    {Invariant::kSuspendedUnmonitored}});
}

TEST_F(TxSanSchedExploreTest, FindsSkippedQuiescence) {
  ExploreAndReplay({"skip_quiescence", &HtmRuntime::FaultInjection::skip_quiescence,
                    "inc-elided", {Invariant::kCommitWithoutQuiescence}});
}

TEST_F(TxSanSchedExploreTest, FindsChopEagerPiecePublish) {
  ExploreAndReplay({"chop_eager_piece_publish",
                    &HtmRuntime::FaultInjection::chop_eager_piece_publish,
                    "chop-torn-chain",
                    {Invariant::kSpeculativeVisible, Invariant::kChainTornPublish}});
}

TEST_F(TxSanSchedExploreTest, FindsChopDroppedPublishEntry) {
  ExploreAndReplay({"chop_drop_publish_entry",
                    &HtmRuntime::FaultInjection::chop_drop_publish_entry,
                    "chop-torn-chain",
                    {Invariant::kChainTornPublish}});
}

// The stale-carryover bug has no invariant of its own: the restarted chain
// double-applies an increment and the workload's post-condition catches it.
TEST_F(TxSanSchedExploreTest, FindsChopKeptCarryoverOnUnwind) {
  ExploreAndReplay({"chop_keep_carryover_on_unwind",
                    &HtmRuntime::FaultInjection::chop_keep_carryover_on_unwind,
                    "chop-piece-abort",
                    {},
                    {"verify-failed"}});
}

#endif  // RWLE_SCHED

}  // namespace
}  // namespace rwle
