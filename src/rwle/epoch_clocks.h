// Per-thread epoch clocks and the RCU-like quiescence barrier
// (paper, Algorithm 1: clocks[], RWLE_SYNCHRONIZE).
//
// A thread's clock is odd while it is inside a read critical section. A
// writer that must not overrun in-flight readers snapshots all clocks and
// waits for every odd one to change. Clocks are plain atomics, NOT fabric
// cells: the writer reads them while its transaction is suspended (or from
// a ROT, which does not track loads), so reader increments never conflict
// with the writer's speculation -- the same escape-action property the
// paper gets from POWER8 suspend/resume.
//
// Clocks live in a SlotTable (src/common/slot_table.h): standalone
// EpochClocks own a table of padded clocks, while an RwLeLock's clocks are
// a view of the clock member of the lock's per-slot records. A reader's segment is published (seq_cst
// CAS) before its first clock increment, so a scan that finds a segment
// unpublished reads its clocks as even -- the position it would be in had
// it read the clock itself -- and scans walk only published segments below
// the registry high watermark.
#ifndef RWLE_SRC_RWLE_EPOCH_CLOCKS_H_
#define RWLE_SRC_RWLE_EPOCH_CLOCKS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/common/cpu.h"
#include "src/common/sched_hooks.h"
#include "src/common/slot_table.h"
#include "src/common/thread_registry.h"
#include "src/htm/htm_runtime.h"
#include "src/stats/cost_meter.h"
#include "src/trace/trace_sink.h"

namespace rwle {

class EpochClocks {
 public:
  using Clock = std::atomic<std::uint64_t>;

  // Owns its clocks: one per slot, padded to cache lines.
  EpochClocks()
      : own_(std::make_unique<SlotTable<PaddedClock>>()),
        clocks_(own_->Column<Clock>(offsetof(PaddedClock, value))) {}

  // Views the clock member of another table's records.
  explicit EpochClocks(SlotColumn<Clock> clocks) : clocks_(clocks) {}

  EpochClocks(const EpochClocks&) = delete;
  EpochClocks& operator=(const EpochClocks&) = delete;

  // Enter/exit a read critical section. seq_cst gives the MEM_FENCE of
  // Algorithm 1 line 13: writers are guaranteed to see the reader before
  // the reader's first data access.
  //
  // Analysis hook placement is deliberately asymmetric so txsan's view of
  // the read window is a subset of the real window (enter notified after
  // the clock goes odd, exit notified before it goes even): the quiescence
  // drain check then never reports a false positive.
  void Enter(std::uint32_t thread_slot) { Enter(thread_slot, clocks_.Local(thread_slot)); }
  void Exit(std::uint32_t thread_slot) { Exit(thread_slot, clocks_.Local(thread_slot)); }

  // Same, for a caller that already holds its clock (`clock` must be
  // `thread_slot`'s, and `thread_slot` the caller's own).
  void Enter(std::uint32_t thread_slot, Clock& clock) {
    RWLE_SCHED_POINT(kReaderEnter, this);
    // Per-thread line: uncontended.
    CostMeter::Global().ChargeAt(thread_slot, CostModel::kAccess);
    clock.fetch_add(1, std::memory_order_seq_cst);
    RWLE_TXSAN_HOOK(HtmRuntime::Global(), OnReaderEnter(thread_slot, this));
  }

  void Exit(std::uint32_t thread_slot, Clock& clock) {
    RWLE_SCHED_POINT(kReaderExit, this);
    CostMeter::Global().ChargeAt(thread_slot, CostModel::kAccess);
    RWLE_TXSAN_HOOK(HtmRuntime::Global(), OnReaderExit(thread_slot, this));
    clock.fetch_add(1, std::memory_order_seq_cst);
  }

  // 0 (even) while the slot's segment is unpublished.
  std::uint64_t Value(std::uint32_t thread_slot) const {
    const Clock* clock = clocks_.Find(thread_slot);
    return clock == nullptr ? 0 : clock->load(std::memory_order_seq_cst);
  }

  static bool IsInCriticalSection(std::uint64_t clock) { return (clock & 1) != 0; }

  // RWLE_SYNCHRONIZE (Algorithm 1 lines 6-10): snapshot all clocks, then
  // wait for every odd one to move past the snapshot. New readers may keep
  // entering; conflicts with them are caught by the HTM fabric instead.
  void Synchronize() const {
    RWLE_SCHED_POINT(kQuiescence, this);
    RWLE_TXSAN_HOOK(HtmRuntime::Global(), OnQuiescenceBegin(CurrentThreadSlot(), this));
    EmitTraceEvent(HtmRuntime::Global().trace_sink(), TraceEventType::kQuiesceBegin);
    const std::uint32_t n = ThreadRegistry::Global().HighWatermark();
    CostMeter::Global().Charge(2 * CostModel::kClockScanPerThread * n);
    // The snapshot keeps only the odd clocks: the even ones need no wait.
    struct InFlight {
      const Clock* clock;
      std::uint64_t observed;
    };
    InFlight in_flight[kMaxThreads];
    std::uint32_t count = 0;
    clocks_.ForEachPublished(n, [&](std::uint32_t, const Clock& clock) {
      const std::uint64_t observed = clock.load(std::memory_order_seq_cst);
      if (IsInCriticalSection(observed)) {
        in_flight[count++] = {&clock, observed};
      }
    });
    for (std::uint32_t i = 0; i < count; ++i) {
      std::uint32_t spins = 0;
      while (in_flight[i].clock->load(std::memory_order_seq_cst) == in_flight[i].observed) {
        SpinBackoff(spins++);
      }
    }
    RWLE_TXSAN_HOOK(HtmRuntime::Global(), OnQuiescenceEnd(CurrentThreadSlot(), this));
    EmitTraceEvent(HtmRuntime::Global().trace_sink(), TraceEventType::kQuiesceEnd);
  }

  // Single-traversal variant (paper §3.3, first optimization): valid only
  // when new readers are blocked (the caller holds the lock in NS mode), so
  // an odd clock can only transition to "out of critical section".
  void SynchronizeBlockedReaders() const {
    RWLE_SCHED_POINT(kQuiescence, this);
    RWLE_TXSAN_HOOK(HtmRuntime::Global(), OnQuiescenceBegin(CurrentThreadSlot(), this));
    EmitTraceEvent(HtmRuntime::Global().trace_sink(), TraceEventType::kQuiesceBegin,
                   /*detail_a=*/1);  // single-scan variant
    const std::uint32_t n = ThreadRegistry::Global().HighWatermark();
    CostMeter::Global().Charge(CostModel::kClockScanPerThread * n);
    clocks_.ForEachPublished(n, [](std::uint32_t, const Clock& clock) {
      const std::uint64_t observed = clock.load(std::memory_order_seq_cst);
      if (!IsInCriticalSection(observed)) {
        return;
      }
      std::uint32_t spins = 0;
      while (clock.load(std::memory_order_seq_cst) == observed) {
        SpinBackoff(spins++);
      }
    });
    RWLE_TXSAN_HOOK(HtmRuntime::Global(), OnQuiescenceEnd(CurrentThreadSlot(), this));
    EmitTraceEvent(HtmRuntime::Global().trace_sink(), TraceEventType::kQuiesceEnd,
                   /*detail_a=*/1);
  }

 private:
  struct alignas(kCacheLineBytes) PaddedClock {
    Clock value{0};
  };

  std::unique_ptr<SlotTable<PaddedClock>> own_;  // null when viewing another table
  SlotColumn<Clock> clocks_;
};

}  // namespace rwle

#endif  // RWLE_SRC_RWLE_EPOCH_CLOCKS_H_
