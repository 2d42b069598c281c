#include "src/sched/litmus.h"

#include <new>
#include <vector>

#include "src/chop/chopped_section.h"
#include "src/common/slot_table.h"
#include "src/common/thread_registry.h"
#include "src/htm/abort.h"
#include "src/htm/htm_runtime.h"
#include "src/htm/hw_profile.h"
#include "src/locks/bravo_lock.h"
#include "src/locks/hle_lock.h"
#include "src/memory/tx_var.h"
#include "src/rwle/path_policy.h"
#include "src/rwle/rwle_lock.h"

namespace rwle::sched {
namespace {

// Static per-type arena: same addresses every schedule (see litmus.h).
template <typename T>
LitmusRun* ArenaMake() {
  alignas(T) static unsigned char storage[sizeof(T)];
  static T* live = nullptr;
  if (live != nullptr) {
    live->~T();
  }
  live = new (storage) T();
  return live;
}

// Two threads increment one cell with unsynchronized load-then-store. Any
// schedule that interleaves the read-modify-write sequences loses an update.
// Deliberately buggy: the canonical "does the explorer find it, can the
// trace be replayed and shrunk" target.
class LostUpdate final : public LitmusRun {
 public:
  static constexpr std::uint32_t kThreads = 2;
  static constexpr std::uint64_t kIncrementsPerThread = 3;

  void Thread(std::uint32_t /*tid*/) override {
    for (std::uint64_t i = 0; i < kIncrementsPerThread; ++i) {
      counter_.Store(counter_.Load() + 1);
    }
  }

  bool Verify() override {
    return counter_.Load() == kThreads * kIncrementsPerThread;
  }

 private:
  TxVar<std::uint64_t> counter_{0};
};

// An HTM writer transaction racing a non-transactional thread that
// alternately stores to one of its cells and loads the other. Correctness is
// entirely the simulator's job (requester-wins dooming, buffered stores,
// atomic write-back), so Verify is trivial and txsan is the oracle. This is
// the workload that exposes the conflict/commit/abort fault injections.
class TxConflict final : public LitmusRun {
 public:
  static constexpr std::uint32_t kThreads = 2;
  static constexpr std::uint64_t kRounds = 4;

  void Thread(std::uint32_t tid) override {
    HtmRuntime& runtime = HtmRuntime::Global();
    if (tid == 0) {
      for (std::uint64_t round = 0; round < kRounds; ++round) {
        try {
          runtime.TxBegin(TxKind::kHtm);
          x_.Store(round + 1);
          y_.Store(round + 1);
          runtime.TxCommit();
        } catch (const TxAbortException&) {
          // Doomed by the other thread; that is the point of the workload.
        }
      }
    } else {
      for (std::uint64_t round = 0; round < kRounds; ++round) {
        if (round % 2 == 0) {
          x_.Store(100 + round);
        } else {
          (void)y_.Load();
        }
      }
    }
  }

 private:
  TxVar<std::uint64_t> x_{0};
  TxVar<std::uint64_t> y_{0};
};

// Two RW-LE writers keep two cells in lockstep while a reader checks the
// invariant through uninstrumented read sections. The default policy drives
// the HTM write path, whose epilogue suspends for the quiescence scan --
// the workload for the suspend/quiescence fault injections. Verify checks
// both the totals and that no reader ever saw the cells out of sync.
class IncElided final : public LitmusRun {
 public:
  static constexpr std::uint32_t kThreads = 3;
  static constexpr std::uint64_t kWritesPerWriter = 2;

  void Thread(std::uint32_t tid) override {
    if (tid < 2) {
      for (std::uint64_t i = 0; i < kWritesPerWriter; ++i) {
        lock_.Write([this] {
          x_.Store(x_.Load() + 1);
          y_.Store(y_.Load() + 1);
        });
      }
    } else {
      for (std::uint64_t i = 0; i < 2 * kWritesPerWriter; ++i) {
        lock_.Read([this] {
          if (x_.Load() != y_.Load()) {
            torn_ = true;
          }
        });
      }
    }
  }

  bool Verify() override {
    const std::uint64_t expected = 2 * kWritesPerWriter;
    return !torn_ && x_.Load() == expected && y_.Load() == expected;
  }

 private:
  static RwLePolicy Policy() { return RwLePolicy{}; }

  RwLeLock lock_{Policy()};
  TxVar<std::uint64_t> x_{0};
  TxVar<std::uint64_t> y_{0};
  bool torn_ = false;  // written only by the reader thread
};

// Same shape as inc-elided but with max_htm_retries = 0, which demotes every
// write attempt straight to the ROT path: untracked loads, tracked stores,
// quiescence before commit. Exercises the ROT-specific fault injection
// (rot_tracks_reads) plus ROT/reader dooming.
class RotConflict final : public LitmusRun {
 public:
  static constexpr std::uint32_t kThreads = 3;
  static constexpr std::uint64_t kWritesPerWriter = 2;

  void Thread(std::uint32_t tid) override {
    if (tid < 2) {
      for (std::uint64_t i = 0; i < kWritesPerWriter; ++i) {
        lock_.Write([this] {
          x_.Store(x_.Load() + 1);
          y_.Store(y_.Load() + 1);
        });
      }
    } else {
      for (std::uint64_t i = 0; i < 2 * kWritesPerWriter; ++i) {
        lock_.Read([this] {
          if (x_.Load() != y_.Load()) {
            torn_ = true;
          }
        });
      }
    }
  }

  bool Verify() override {
    const std::uint64_t expected = 2 * kWritesPerWriter;
    return !torn_ && x_.Load() == expected && y_.Load() == expected;
  }

 private:
  static RwLePolicy Policy() {
    RwLePolicy policy;
    policy.max_htm_retries = 0;  // demote straight to ROT
    return policy;
  }

  RwLeLock lock_{Policy()};
  TxVar<std::uint64_t> x_{0};
  TxVar<std::uint64_t> y_{0};
  bool torn_ = false;
};

// The BRAVO revocation race: a writer clears the bias and scans the reader
// table while readers publish their slots (publish-then-recheck vs
// clear-then-scan). A schedule where the writer's scan misses a published
// reader would let the write section overlap a fast read -- the reader
// would see the two cells out of lockstep (and txsan would flag the
// overlapping sections). Bias starts armed so the first write revokes.
class BravoRevoke final : public LitmusRun {
 public:
  static constexpr std::uint32_t kThreads = 3;
  static constexpr std::uint64_t kWritesPerWriter = 2;

  void Thread(std::uint32_t tid) override {
    if (tid == 0) {
      for (std::uint64_t i = 0; i < kWritesPerWriter; ++i) {
        lock_.Write([this] {
          x_.Store(x_.Load() + 1);
          y_.Store(y_.Load() + 1);
        });
      }
    } else {
      for (std::uint64_t i = 0; i < 2 * kWritesPerWriter; ++i) {
        lock_.Read([this, tid] {
          if (x_.Load() != y_.Load()) {
            torn_[tid] = true;
          }
        });
      }
    }
  }

  bool Verify() override {
    return !torn_[1] && !torn_[2] && x_.Load() == kWritesPerWriter &&
           y_.Load() == kWritesPerWriter;
  }

 private:
  static BravoLock::Options Options() {
    BravoLock::Options options;
    // Re-arm immediately: every write in the schedule revokes, maximizing
    // revocation/publish interleavings within the schedule budget.
    options.inhibit_multiplier = 0;
    return options;
  }

  BravoLock lock_{Options()};
  TxVar<std::uint64_t> x_{0};
  TxVar<std::uint64_t> y_{0};
  bool torn_[kThreads] = {};  // each entry written only by its own reader
};

// The RW-LE BRAVO fallback parking protocol: retries are zeroed so every
// write takes the non-speculative path, and readers that collide with it
// park in the distributed table (park / grant / admit / drain, see
// rwle_lock.cc). A schedule where the writer's drain misses an admitted
// reader, or a parked reader is never granted (lost wakeup), fails Verify
// by tearing or by hanging the schedule.
class BravoFallback final : public LitmusRun {
 public:
  static constexpr std::uint32_t kThreads = 3;
  static constexpr std::uint64_t kWritesPerWriter = 2;

  void Thread(std::uint32_t tid) override {
    if (tid == 0) {
      for (std::uint64_t i = 0; i < kWritesPerWriter; ++i) {
        lock_.Write([this] {
          x_.Store(x_.Load() + 1);
          y_.Store(y_.Load() + 1);
        });
      }
    } else {
      for (std::uint64_t i = 0; i < 2 * kWritesPerWriter; ++i) {
        lock_.Read([this, tid] {
          if (x_.Load() != y_.Load()) {
            torn_[tid] = true;
          }
        });
      }
    }
  }

  bool Verify() override {
    return !torn_[1] && !torn_[2] && x_.Load() == kWritesPerWriter &&
           y_.Load() == kWritesPerWriter;
  }

 private:
  static RwLePolicy Policy() {
    RwLePolicy policy;
    policy.max_htm_retries = 0;  // demote past HTM...
    policy.max_rot_retries = 0;  // ...and past ROT: every write runs NS
    policy.fallback = FallbackScheme::kBravo;
    return policy;
  }

  RwLeLock lock_{Policy()};
  TxVar<std::uint64_t> x_{0};
  TxVar<std::uint64_t> y_{0};
  bool torn_[kThreads] = {};
};

// A chopped writer keeps two cells in lockstep across two pieces of one
// chain while a reader checks the invariant through elided read sections.
// Chain-commit atomicity is entirely the chopping layer's job: intermediate
// piece commits are captured (never published), so no schedule may let the
// reader observe x != y. The workload for the chop_eager_piece_publish and
// chop_drop_publish_entry fault injections -- with either injected, a torn
// intermediate state reaches real memory and the reader (or txsan's chain
// oracle) flags it.
class ChopTornChain final : public LitmusRun {
 public:
  static constexpr std::uint32_t kThreads = 2;
  static constexpr std::uint64_t kChains = 2;

  void Thread(std::uint32_t tid) override {
    if (tid == 0) {
      for (std::uint64_t i = 0; i < kChains; ++i) {
        chopped_.Write(2, [this](std::size_t piece) {
          if (piece == 0) {
            x_.Store(x_.Load() + 1);
          } else {
            y_.Store(y_.Load() + 1);
          }
        });
      }
    } else {
      for (std::uint64_t i = 0; i < 2 * kChains; ++i) {
        lock_.Read([this] {
          if (x_.Load() != y_.Load()) {
            torn_ = true;
          }
        });
      }
    }
  }

  bool Verify() override {
    return !torn_ && x_.Load() == kChains && y_.Load() == kChains;
  }

 private:
  RwLeLock lock_;
  ChoppedSection chopped_{lock_};
  TxVar<std::uint64_t> x_{0};
  TxVar<std::uint64_t> y_{0};
  bool torn_ = false;  // written only by the reader thread
};

// A chopped chain whose first piece reads a noise cell that a second,
// lock-free thread keeps storing. Requester-wins dooms the piece whenever
// the store lands mid-piece, and with max_piece_retries = 0 every piece
// abort unwinds the whole chain: the carryover must be discarded and the
// restarted chain must recompute from real memory. The workload for the
// chop_keep_carryover_on_unwind injection -- stale redo entries make the
// restarted chain double-apply its increments, failing Verify.
class ChopPieceAbort final : public LitmusRun {
 public:
  static constexpr std::uint32_t kThreads = 2;
  static constexpr std::uint64_t kChains = 2;
  static constexpr std::uint64_t kNoiseStores = 4;

  void Thread(std::uint32_t tid) override {
    if (tid == 0) {
      for (std::uint64_t i = 0; i < kChains; ++i) {
        chopped_.Write(2, [this](std::size_t piece) {
          if (piece == 0) {
            (void)noise_.Load();  // doom window: joins the piece's read set
            x_.Store(x_.Load() + 1);
          } else {
            y_.Store(y_.Load() + 1);
          }
        });
      }
    } else {
      for (std::uint64_t i = 0; i < kNoiseStores; ++i) {
        noise_.Store(100 + i);
      }
    }
  }

  bool Verify() override {
    return x_.Load() == kChains && y_.Load() == kChains;
  }

 private:
  static ChopPolicy Policy() {
    ChopPolicy policy;
    policy.max_piece_retries = 0;  // any piece abort unwinds the chain
    return policy;
  }

  RwLeLock lock_;
  ChoppedSection chopped_{lock_, Policy()};
  TxVar<std::uint64_t> x_{0};
  TxVar<std::uint64_t> y_{0};
  TxVar<std::uint64_t> noise_{0};
};

// The Dice et al. lazy-subscription hazard, hardware-profile dependent. An
// HLE fast path that defers its fallback-lock check to commit time can run
// as a zombie over a serial holder's partial writes. The writer's body
// self-aborts every speculative attempt (explicit aborts are not
// persistent, so it burns its retries and lands on the serial path
// deterministically); the reader speculates and checks the two-cell
// invariant, recording a violation through a plain (non-fabric) flag that
// survives the reader's own doom. Under SubscriptionPolicy::kEager (the
// power8 default) the serial acquisition dooms subscribed readers before
// any torn read, so Verify cannot fail; under --hw=lazy-hle the zombie
// window is real and the explorer finds it (PORTABILITY.md walks the trace).
class LazySub final : public LitmusRun {
 public:
  static constexpr std::uint32_t kThreads = 2;
  static constexpr std::uint64_t kWrites = 1;

  void Thread(std::uint32_t tid) override {
    HtmRuntime& runtime = HtmRuntime::Global();
    if (tid == 0) {
      for (std::uint64_t i = 0; i < kWrites; ++i) {
        lock_.Write([this, &runtime] {
          if (runtime.InTx()) {
            runtime.TxAbort(AbortCause::kExplicit);  // force the serial path
          }
          x_.Store(x_.Load() + 1);
          y_.Store(y_.Load() + 1);
        });
      }
    } else {
      for (std::uint64_t i = 0; i < 2 * kWrites; ++i) {
        lock_.Read([this] {
          if (x_.Load() != y_.Load()) {
            torn_ = true;
          }
        });
      }
    }
  }

  bool Verify() override {
    return !torn_ && x_.Load() == kWrites && y_.Load() == kWrites;
  }

 private:
  HleLock lock_{/*max_retries=*/2};
  TxVar<std::uint64_t> x_{0};
  TxVar<std::uint64_t> y_{0};
  bool torn_ = false;  // written only by the reader thread
};

// The FORTH limited-tracking hazard, hardware-profile dependent. The
// reader's filler loads exhaust its tracked read set (kFiller matches the
// limited-k profile's K), pushing the x/y pair into the untracked tail:
// lines there carry no read monitor, so the writer's commit between the two
// pair loads dooms nobody and the reader *commits* a torn snapshot -- a
// committed serializability violation, strictly worse than lazy-sub's
// zombie observation. Under full tracking (power8) the pair is monitored
// and requester-wins dooming makes a torn commit impossible.
class LimitedScan final : public LitmusRun {
 public:
  static constexpr std::uint32_t kThreads = 2;
  static constexpr std::uint64_t kRounds = 2;
  // The limited-k profile's K, so the filler exhausts the tracked read set
  // exactly; sourced from the same constant hw_profile.cc builds the
  // profiles from, so changing K cannot silently defuse this litmus.
  static constexpr std::size_t kFiller = kLimitedKTrackedLines;

  void Thread(std::uint32_t tid) override {
    HtmRuntime& runtime = HtmRuntime::Global();
    if (tid == 0) {
      for (std::uint64_t round = 0; round < kRounds; ++round) {
        try {
          runtime.TxBegin(TxKind::kHtm);
          x_.Store(round + 1);
          y_.Store(round + 1);
          runtime.TxCommit();
        } catch (const TxAbortException&) {
          // Doomed by the reader (requester wins under full tracking).
        }
      }
    } else {
      for (std::uint64_t round = 0; round < kRounds; ++round) {
        try {
          runtime.TxBegin(TxKind::kHtm);
          std::uint64_t sum = 0;
          for (std::size_t i = 0; i < kFiller; ++i) {
            sum += filler_[i].value.Load();
          }
          const std::uint64_t a = x_.Load();
          const std::uint64_t b = y_.Load();
          runtime.TxCommit();
          (void)sum;
          if (a != b) {
            torn_committed_ = true;  // the torn snapshot survived commit
          }
        } catch (const TxAbortException&) {
          // Conflict with the writer; consistency preserved by the abort.
        }
      }
    }
  }

  bool Verify() override { return !torn_committed_; }

 private:
  // One conflict-table line per cell (cells within a 128-byte line share a
  // slot), so the filler really occupies kFiller distinct tracked lines and
  // x/y land beyond the bound.
  struct alignas(128) PaddedVar {
    TxVar<std::uint64_t> value{0};
  };

  PaddedVar filler_[kFiller];
  PaddedVar x_pad_, y_pad_;
  TxVar<std::uint64_t>& x_ = x_pad_.value;
  TxVar<std::uint64_t>& y_ = y_pad_.value;
  bool torn_committed_ = false;  // written only by the reader thread
};

// A reader's first-ever Read on a lock -- segment allocation, publish,
// clock increment -- racing an HTM writer's quiescence scan. The constructor
// claims registry slots until the lowest free one is the last of its
// segment, so the two workers land in different slot-table segments and the
// reader publishes its own: the writer's scan can then find the reader's
// segment unpublished, published with an even clock, or odd (the
// slot-publish scheduling point opens the middle window). Each must be
// safe, so the reader never sees the pair out of lockstep.
class FirstTouchReader final : public LitmusRun {
 public:
  static constexpr std::uint32_t kThreads = 2;
  static constexpr std::uint64_t kWrites = 2;

  FirstTouchReader() {
    for (;;) {
      const std::uint32_t slot = ThreadRegistry::Global().Register();
      if ((slot + 1) % kSlotSegmentSize == 0) {
        ThreadRegistry::Global().Unregister(slot);
        break;
      }
      held_slots_.push_back(slot);
    }
  }

  ~FirstTouchReader() override {
    for (const std::uint32_t slot : held_slots_) {
      ThreadRegistry::Global().Unregister(slot);
    }
  }

  FirstTouchReader(const FirstTouchReader&) = delete;
  FirstTouchReader& operator=(const FirstTouchReader&) = delete;

  void Thread(std::uint32_t tid) override {
    if (tid == 0) {
      for (std::uint64_t i = 0; i < kWrites; ++i) {
        lock_.Write([this] {
          x_.Store(x_.Load() + 1);
          y_.Store(y_.Load() + 1);
        });
      }
    } else {
      for (std::uint64_t i = 0; i < kWrites; ++i) {
        lock_.Read([this] {
          if (x_.Load() != y_.Load()) {
            torn_ = true;
          }
        });
      }
    }
  }

  bool Verify() override {
    return !torn_ && x_.Load() == kWrites && y_.Load() == kWrites;
  }

 private:
  std::vector<std::uint32_t> held_slots_;
  RwLeLock lock_;  // default policy: HTM writes, quiescence while suspended
  TxVar<std::uint64_t> x_{0};
  TxVar<std::uint64_t> y_{0};
  bool torn_ = false;  // written only by the reader thread
};

}  // namespace

const std::vector<LitmusSpec>& AllLitmus() {
  static const std::vector<LitmusSpec> specs = {
      {"lost-update",
       "two threads do unsynchronized load-inc-store on one cell (deliberately racy)",
       LostUpdate::kThreads, /*intentionally_buggy=*/true, &ArenaMake<LostUpdate>},
      {"conflict",
       "HTM transaction racing non-transactional stores and loads on its footprint",
       TxConflict::kThreads, /*intentionally_buggy=*/false, &ArenaMake<TxConflict>},
      {"inc-elided",
       "two RW-LE writers keep two cells in lockstep, one reader checks (HTM path)",
       IncElided::kThreads, /*intentionally_buggy=*/false, &ArenaMake<IncElided>},
      {"rot-conflict",
       "same invariant with max_htm_retries=0, forcing the ROT write path",
       RotConflict::kThreads, /*intentionally_buggy=*/false, &ArenaMake<RotConflict>},
      {"bravo-revoke",
       "BravoLock writer revokes the bias while readers publish table slots",
       BravoRevoke::kThreads, /*intentionally_buggy=*/false, &ArenaMake<BravoRevoke>},
      {"bravo-fallback",
       "RW-LE writes forced non-speculative; readers park in the BRAVO fallback",
       BravoFallback::kThreads, /*intentionally_buggy=*/false,
       &ArenaMake<BravoFallback>},
      {"chop-torn-chain",
       "chopped two-piece chain keeps two cells in lockstep, one reader checks",
       ChopTornChain::kThreads, /*intentionally_buggy=*/false,
       &ArenaMake<ChopTornChain>},
      {"chop-piece-abort",
       "lock-free stores doom chopped pieces; every unwind must discard carryover",
       ChopPieceAbort::kThreads, /*intentionally_buggy=*/false,
       &ArenaMake<ChopPieceAbort>},
      {"lazy-sub",
       "HLE reader vs serial writer; torn reads reachable under --hw=lazy-hle",
       LazySub::kThreads, /*intentionally_buggy=*/false, &ArenaMake<LazySub>},
      {"limited-scan",
       "reader footprint exceeds tracked lines; torn commit under --hw=limited-k",
       LimitedScan::kThreads, /*intentionally_buggy=*/false,
       &ArenaMake<LimitedScan>},
      {"first-touch-reader",
       "reader's first Read (segment publish, clock increment) races an HTM writer's scan",
       FirstTouchReader::kThreads, /*intentionally_buggy=*/false,
       &ArenaMake<FirstTouchReader>},
  };
  return specs;
}

const LitmusSpec* FindLitmus(const std::string& name) {
  for (const LitmusSpec& spec : AllLitmus()) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

}  // namespace rwle::sched
