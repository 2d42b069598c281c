// Scheduling-point hooks for the cooperative virtual scheduler (src/sched).
//
// Same pattern as analysis_hooks.h: low-level code calls through a function
// pointer (only in RWLE_SCHED builds), and the scheduler installs its handler
// while a controlled round is running. A null pointer means "no scheduler" and
// costs one relaxed atomic load per event in sched builds, nothing at all in
// production builds (the call sites are compiled out).
//
// Unlike the analysis hooks, the sched hook returns a bool: true means the
// calling thread is a participant of an active scheduled round and the point
// was consumed (the scheduler may have context-switched inside the call);
// false means the caller should fall back to its normal free-running behavior
// (e.g. SpinBackoff still yields the OS CPU). This keeps spin loops live both
// under the scheduler and without it.
#ifndef RWLE_SRC_COMMON_SCHED_HOOKS_H_
#define RWLE_SRC_COMMON_SCHED_HOOKS_H_

#include <atomic>
#include <cstdint>

namespace rwle::sched_hooks {

// The scheduling-point catalogue (DESIGN.md §9). Every context switch the
// scheduler performs is attributed to exactly one of these, and the replay
// trace records the point kind alongside the chosen thread so a divergent
// re-execution is diagnosable.
enum class SchedPoint : std::uint8_t {
  kFabricLoad = 0,    // HtmRuntime::CellLoad entry
  kFabricStore = 1,   // HtmRuntime::CellStore entry
  kFabricCas = 2,     // HtmRuntime::CellCas entry (lock-word CAS)
  kTxBegin = 3,       // transaction begin
  kTxCommit = 4,      // before the ACTIVE -> COMMITTING race
  kTxAbort = 5,       // abort cleanup (FinishAbort)
  kTxSuspend = 6,     // POWER8 tsuspend.
  kTxResume = 7,      // POWER8 tresume.
  kLockAcquire = 8,   // lock-word / spin-lock acquire attempt
  kLockRelease = 9,   // lock-word / spin-lock release
  kReaderEnter = 10,  // epoch clock goes odd
  kReaderExit = 11,   // epoch clock goes even
  kQuiescence = 12,   // writer starts a quiescence scan
  kThreadRegister = 13,    // ScopedThreadSlot acquired a slot
  kThreadUnregister = 14,  // ScopedThreadSlot about to release its slot
  kSpinWait = 15,     // one SpinBackoff iteration of any spin loop
  kPreemptYield = 16, // preemption-model yield (MaybePreempt / defer scope)
  kRoundStart = 17,   // synthetic: first pick when all participants arrived
  kSlotPublish = 18,  // a lock's per-slot segment was just published
};

inline constexpr std::uint8_t kNumSchedPoints = 19;

constexpr const char* SchedPointName(SchedPoint point) {
  switch (point) {
    case SchedPoint::kFabricLoad: return "fabric-load";
    case SchedPoint::kFabricStore: return "fabric-store";
    case SchedPoint::kFabricCas: return "fabric-cas";
    case SchedPoint::kTxBegin: return "tx-begin";
    case SchedPoint::kTxCommit: return "tx-commit";
    case SchedPoint::kTxAbort: return "tx-abort";
    case SchedPoint::kTxSuspend: return "tx-suspend";
    case SchedPoint::kTxResume: return "tx-resume";
    case SchedPoint::kLockAcquire: return "lock-acquire";
    case SchedPoint::kLockRelease: return "lock-release";
    case SchedPoint::kReaderEnter: return "reader-enter";
    case SchedPoint::kReaderExit: return "reader-exit";
    case SchedPoint::kQuiescence: return "quiescence";
    case SchedPoint::kThreadRegister: return "thread-register";
    case SchedPoint::kThreadUnregister: return "thread-unregister";
    case SchedPoint::kSpinWait: return "spin-wait";
    case SchedPoint::kPreemptYield: return "preempt-yield";
    case SchedPoint::kRoundStart: return "round-start";
    case SchedPoint::kSlotPublish: return "slot-publish";
  }
  return "?";
}

// Returns true iff the calling thread was a scheduled participant and the
// point was consumed. `addr` is the cell/lock the point concerns (may be
// null); currently informational only.
using SchedPointHook = bool (*)(SchedPoint point, const void* addr);

inline std::atomic<SchedPointHook> on_sched_point{nullptr};

inline bool NotifySchedPoint(SchedPoint point, const void* addr) {
  // Acquire: pairs with the scheduler's release store installing the hook,
  // so a non-null hook sees the round state it was initialized with.
  if (SchedPointHook hook = on_sched_point.load(std::memory_order_acquire)) {
    return hook(point, addr);
  }
  return false;
}

}  // namespace rwle::sched_hooks

// Fire-and-forget scheduling point: a statement in sched builds, nothing at
// all otherwise. Call sites that need the consumed/not-consumed result (spin
// loops, preemption yields) call NotifySchedPoint directly instead.
#ifdef RWLE_SCHED
#define RWLE_SCHED_POINT(point, addr)                        \
  (void)::rwle::sched_hooks::NotifySchedPoint(               \
      ::rwle::sched_hooks::SchedPoint::point, (addr))
#else
#define RWLE_SCHED_POINT(point, addr) \
  do {                                \
  } while (0)
#endif

#endif  // RWLE_SRC_COMMON_SCHED_HOOKS_H_
