// RW-LE: hardware read-write lock elision (paper, Algorithm 2).
//
// Readers run *uninstrumented*: no transaction, no read-set tracking -- just
// an epoch clock increment on entry/exit. Writers run speculatively (HTM
// first, then ROT, then the non-speculative lock, per the PATH policy) and,
// before committing, wait for all in-flight readers to drain (RCU-style
// quiescence) so no reader observes a mix of pre- and post-commit state:
//   - HTM path: suspend the transaction, synchronize, resume, commit.
//   - ROT path: synchronize (ROT loads are untracked), commit; ROT writers
//     are serialized via the global lock but run concurrently with readers.
//   - NS path: acquire the lock (blocking readers), synchronize once, run
//     pessimistically.
// New readers that race with a writer's commit are safe because their loads
// of a speculatively-written line doom the writer through the coherence
// fabric (paper Figure 2).
//
// Variants: kOpt (HTM->ROT->NS), kPes (ROT->NS, writers serialized), kFair
// (version-based fairness so writers cannot starve readers, §3.3).
//
// Critical sections are closures (see DESIGN.md §1); shared state inside
// them must be accessed through TxVar.
//
// All per-thread state of a lock -- epoch clock, nesting depths, the FAIR
// lock-word copy and the statistics counters -- sits in one record per
// registry slot, kept in a SlotTable (src/common/slot_table.h) and looked
// up once per Read/Write. A lock therefore holds memory only for the
// segments of slots that have used it (DESIGN.md §12).
#ifndef RWLE_SRC_RWLE_RWLE_LOCK_H_
#define RWLE_SRC_RWLE_RWLE_LOCK_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "src/common/check.h"
#include "src/common/sched_hooks.h"
#include "src/common/slot_table.h"
#include "src/common/thread_registry.h"
#include "src/htm/htm_runtime.h"
#include "src/htm/preemption.h"
#include "src/rwle/bravo_reader_table.h"
#include "src/rwle/epoch_clocks.h"
#include "src/rwle/lock_word.h"
#include "src/rwle/path_policy.h"
#include "src/stats/cost_meter.h"
#include "src/stats/stats.h"

namespace rwle {

class ChoppedSection;

class RwLeLock {
 public:
  explicit RwLeLock(const RwLePolicy& policy = RwLePolicy{});

  RwLeLock(const RwLeLock&) = delete;
  RwLeLock& operator=(const RwLeLock&) = delete;

  // Executes `fn` as a read critical section. The calling thread must hold
  // a ScopedThreadSlot. `fn` sees a consistent snapshot and never blocks on
  // speculative writers (only on non-speculative ones). Read sections nest
  // freely (paper §3.1 footnote 3) and may appear inside a Write section
  // (subsumed by it); taking Write inside Read is a lock upgrade and is
  // rejected, as with plain read-write locks.
  template <typename Fn>
  void Read(Fn&& fn) {
    const std::uint32_t slot = CurrentThreadSlot();
    RWLE_CHECK(slot != kInvalidThreadSlot);
    Slot* found = slots_.Find(slot);
    Slot& self = found != nullptr ? *found : FirstRead(slot);
    if (self.write_depth > 0 || self.read_depth > 0) {
      // Nested: the outer critical section already provides the guarantees.
      ++self.read_depth;
      try {
        fn();
      } catch (...) {
        --self.read_depth;
        throw;
      }
      --self.read_depth;
      return;  // the outer section records the commit
    }
    // Read sections complete without being parked mid-section by the
    // preemption model; the deferred yield is delivered only after the
    // epoch clock goes even again (see src/htm/preemption.h).
    const PreemptionDeferScope defer;
    if (policy_.variant == RwLeVariant::kFair) {
      ReadEnterFair(slot, self);
    } else {
      ReadEnter(slot, self);
    }
    self.read_depth = 1;
    try {
      fn();
    } catch (...) {
      self.read_depth = 0;
      clocks_.Exit(slot, self.clock);
      ReadExitFallback(slot);
      throw;
    }
    self.read_depth = 0;
    clocks_.Exit(slot, self.clock);
    ReadExitFallback(slot);
    self.stats.RecordCommit(CommitPath::kUninstrumentedRead);
  }

  // Executes `fn` as a write critical section, retrying across the HTM /
  // ROT / NS paths per the policy. `fn` may run multiple times (aborted
  // attempts have no visible effect); it must confine shared-state access
  // to TxVar cells and must tolerate re-execution.
  template <typename Fn>
  void Write(Fn&& fn) {
    const std::uint32_t slot = CurrentThreadSlot();
    RWLE_CHECK(slot != kInvalidThreadSlot);
    Slot& self = slots_.Local(slot);
    RWLE_CHECK(self.read_depth == 0 &&
               "lock upgrade (Write inside Read) is not supported");
    if (self.write_depth > 0) {
      // Flattened nesting: the outer write section already holds the lock
      // (or speculates); just run the body as part of it.
      ++self.write_depth;
      try {
        fn();
      } catch (...) {
        --self.write_depth;
        throw;
      }
      --self.write_depth;
      return;
    }
    const NestingScope write_scope(&self.write_depth);
    HtmRuntime& runtime = HtmRuntime::Global();
    // Analysis builds: bracket the (outermost) elided write section so txsan
    // can require a quiescence scan before any commit inside it.
    const AnalysisElidedWriteScope txsan_scope(runtime, slot);
    PathPolicy path(policy_);
    for (;;) {
      switch (path.current()) {
        case WritePath::kHtm: {
          try {
            HtmPrologue();
            RunSpeculative(fn);
            HtmEpilogue();
            self.stats.RecordCommit(CommitPath::kHtm);
            return;
          } catch (const TxAbortException& abort) {
            self.stats.RecordAbort(abort.kind(), abort.cause());
            const WritePath before = path.current();
            path.OnAbort(abort.persistent());
            EmitPathTransition(before, path.current());
          }
          break;
        }
        case WritePath::kRot: {
          const std::uint64_t held = AcquireRotPath();
          // ROT writers are serialized with each other but run concurrently
          // with readers: writer-serial bucket in the cost model.
          SerialSectionScope rot_scope(SerialScope::kWriters);
          try {
            runtime.TxBegin(TxKind::kRot);
            RunSpeculative(fn);
            RotEpilogue();
            ReleaseRotPath(held);
            self.stats.RecordCommit(CommitPath::kRot);
            return;
          } catch (const TxAbortException& abort) {
            ReleaseRotPath(held);
            self.stats.RecordAbort(abort.kind(), abort.cause());
            const WritePath before = path.current();
            path.OnAbort(abort.persistent());
            EmitPathTransition(before, path.current());
          }
          break;
        }
        case WritePath::kNs: {
          {
            // NS sections cannot abort; an exception here is the user's,
            // and the window releases the lock on the way out.
            const NsWindow window(*this, slot, AcquireNsPath());
            fn();
          }
          self.stats.RecordCommit(CommitPath::kSerial);
          return;
        }
      }
    }
  }

  const RwLePolicy& policy() const { return policy_; }
  StatsRegistry& stats() { return stats_; }
  EpochClocks& clocks() { return clocks_; }

  // Exposed for tests: the RCU-like quiescence barrier.
  void Synchronize() const { clocks_.Synchronize(); }

 private:
  // The chopping layer (src/chop/) drives the write word directly: a chain
  // holds wlock_ as its chain token and opens an NsWindow to publish.
  friend class ChoppedSection;

  // The non-speculative window, the one owner of the NS path's protocol.
  // Built from the held NS word (acquired by the caller, or upgraded from
  // a chain token), it runs the section in the global-serial cost bucket,
  // drains the readers a BRAVO fallback admitted through private entries,
  // then waits out the uninstrumented readers with the NS quiescence; its
  // destructor releases the word (and grants parked BRAVO readers) on
  // every exit, user exceptions included.
  class NsWindow {
   public:
    NsWindow(RwLeLock& lock, std::uint32_t slot, std::uint64_t held)
        : lock_(lock), held_(held) {
      if (lock_.policy_.fallback == FallbackScheme::kBravo) {
        lock_.BravoDrainAdmitted(slot);
      }
#ifdef RWLE_ANALYSIS
      if (!HtmRuntime::Global().fault_injection().skip_quiescence)
#endif
      {
        lock_.SynchronizeNs(held_);
      }
    }
    ~NsWindow() { lock_.ReleaseNsPath(held_); }

    NsWindow(const NsWindow&) = delete;
    NsWindow& operator=(const NsWindow&) = delete;

   private:
    RwLeLock& lock_;
    const std::uint64_t held_;
    // Engaged before the drain and left after the release.
    const SerialSectionScope serial_{SerialScope::kGlobal};
  };

  // Runs the user body inside the current transaction, converting foreign
  // exceptions into a clean transaction cancellation.
  template <typename Fn>
  void RunSpeculative(Fn&& fn) {
    try {
      fn();
    } catch (const TxAbortException&) {
      throw;
    } catch (...) {
      HtmRuntime::Global().TxCancel();
      throw;
    }
  }

  void EmitPathTransition(WritePath from, WritePath to) {
    if (from != to) {
      EmitTraceEvent(HtmRuntime::Global().trace_sink(),
                     TraceEventType::kPathTransition, static_cast<std::uint8_t>(from),
                     static_cast<std::uint8_t>(to));
    }
  }

  // Per-thread state, one record per registry slot (touched only by the
  // owning thread, except the clock and the FAIR lock-word copy, which
  // writers scan). Zero is the initial state of every field, as SlotTable
  // requires. One 128-B line pair per slot: 16 slots make a 4 KiB segment.
  struct alignas(kCacheLineBytes) Slot {
    EpochClocks::Clock clock{0};
    // FAIR variant: this reader's copy of the lock word taken on entry.
    std::atomic<std::uint64_t> fair_word{0};
    std::uint32_t read_depth = 0;
    std::uint32_t write_depth = 0;
    ThreadStats stats;
  };

  // A Read that found its segment unpublished: publish it. The scheduling
  // point lets the explorer run a writer's scan between the publish and the
  // reader's first clock increment (DESIGN.md §12).
  Slot& FirstRead(std::uint32_t slot) {
    Slot& self = slots_.Local(slot);
    RWLE_SCHED_POINT(kSlotPublish, &self);
    return self;
  }

  void ReadEnter(std::uint32_t slot, Slot& self);
  void ReadEnterFair(std::uint32_t slot, Slot& self);

  // BRAVO fallback (policy_.fallback == kBravo): a reader that collides
  // with the NS lock parks in its private fallback_table_ entry instead of
  // spinning on (and later stampeding) the centralized lock word. The NS
  // writer grants parked entries after release and drains admitted readers
  // on acquire. See rwle_lock.cc for the parking protocol.
  void BravoReaderWait(std::uint32_t slot);
  void BravoReaderExit(std::uint32_t slot);
  void BravoDrainAdmitted(std::uint32_t slot);
  void BravoGrantParked();

  // Read-section exit through the fallback abstraction: withdraws the
  // thread's visible-reader entry, if it holds one. No-op for the
  // centralized fallback (readers there are visible via epoch clocks only).
  void ReadExitFallback(std::uint32_t slot) {
    if (policy_.fallback == FallbackScheme::kBravo) {
      BravoReaderExit(slot);
    }
  }

  // NS-path release through the fallback abstraction: drops the lock, then
  // (BRAVO) sweeps the table to wake parked readers through their private
  // entries -- the centralized fallback instead wakes them by the released
  // lock word itself, at stampede cost (see ReadEnter).
  void ReleaseNsPath(std::uint64_t held_word) {
    wlock_.Release(held_word);
    if (policy_.fallback == FallbackScheme::kBravo) {
      BravoGrantParked();
    }
  }

  // ROT-path lock management: the single global lock in the base design,
  // or the dedicated ROT lock in split-lock mode (§3.3). Returns the held
  // word to pass to ReleaseRotPath.
  std::uint64_t AcquireRotPath();
  void ReleaseRotPath(std::uint64_t held_word);

  // NS-path acquisition; in split-lock mode this also drains any in-flight
  // ROT writer (new ROTs back off while the NS lock is held).
  std::uint64_t AcquireNsPath();

  // HTM write path: wait for the lock to be free, begin, eagerly subscribe.
  void HtmPrologue();
  // HTM commit: suspend, quiesce readers, resume, (lazily subscribe the
  // ROT lock in split mode,) commit.
  void HtmEpilogue();
  // ROT commit: quiesce readers, commit (no suspend needed: ROT loads are
  // untracked, so reading the clocks cannot conflict).
  void RotEpilogue();
  // NS-path quiescence: blocked-reader single scan, or the version-filtered
  // wait of the FAIR variant.
  void SynchronizeNs(std::uint64_t held_word);

  class NestingScope {
   public:
    explicit NestingScope(std::uint32_t* depth) : depth_(depth) { ++*depth_; }
    ~NestingScope() { --*depth_; }
    NestingScope(const NestingScope&) = delete;
    NestingScope& operator=(const NestingScope&) = delete;

   private:
    std::uint32_t* depth_;
  };

  RwLePolicy policy_;
  // The two lock words share one conflict-table line and nothing else does:
  // the fabric models false sharing per 128-B line, so a neighbouring heap
  // cell would conflict with every subscribed transaction.
  alignas(kCacheLineBytes) LockWord wlock_;
  // Split-lock mode only: serializes ROT writers, leaving wlock_ to the NS
  // path. Hardware transactions subscribe to it lazily at commit.
  LockWord rot_lock_;
  // BRAVO fallback only: distributed parking table for readers blocked by
  // an NS writer. Null under kCentralized: its constructor writes all
  // 8 KiB of entries, so it is allocated only for the locks that use it.
  alignas(kCacheLineBytes) std::unique_ptr<BravoReaderTable> fallback_table_;
  SlotTable<Slot> slots_;
  // Views of slots_: the clock and stats members of every record.
  EpochClocks clocks_{slots_.Column<EpochClocks::Clock>(offsetof(Slot, clock))};
  StatsRegistry stats_{slots_.Column<ThreadStats>(offsetof(Slot, stats))};
};

}  // namespace rwle

#endif  // RWLE_SRC_RWLE_RWLE_LOCK_H_
