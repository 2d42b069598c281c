// Big reader lock (BRLock) [19]: trades write throughput for read
// throughput. A reader locks only its own cache-line-private mutex; a writer
// must sweep and lock every per-thread mutex (ascending slot order keeps
// writers deadlock-free: they all serialize on the first slot).
#ifndef RWLE_SRC_LOCKS_BR_LOCK_H_
#define RWLE_SRC_LOCKS_BR_LOCK_H_

#include <atomic>
#include <cstdint>

#include "src/common/check.h"
#include "src/common/cpu.h"
#include "src/common/slot_table.h"
#include "src/common/thread_registry.h"
#include "src/htm/preemption.h"
#include "src/stats/cost_meter.h"
#include "src/stats/stats.h"

namespace rwle {

class BrLock {
 public:
  BrLock() = default;
  BrLock(const BrLock&) = delete;
  BrLock& operator=(const BrLock&) = delete;

  template <typename Fn>
  void Read(Fn&& fn) {
    const std::uint32_t slot = CurrentThreadSlot();
    RWLE_CHECK(slot != kInvalidThreadSlot);
    const PreemptionDeferScope defer;  // yield only after the mutex is released
    LockOne(slot);
    try {
      fn();
    } catch (...) {
      UnlockOne(slot);
      throw;
    }
    UnlockOne(slot);
    stats_.RecordCommit(CommitPath::kUninstrumentedRead);
  }

  template <typename Fn>
  void Write(Fn&& fn) {
    // Writers lock the mutex of every registered thread ("all private
    // mutexes of running threads", [19]). Threads must register before the
    // lock is first used -- like per-CPU BRLock assumes a fixed CPU count.
    const std::uint32_t n = ThreadRegistry::Global().HighWatermark();
    SerialSectionScope serial_scope(SerialScope::kGlobal);
    for (std::uint32_t slot = 0; slot < n; ++slot) {
      LockOne(slot);
    }
    try {
      fn();
    } catch (...) {
      for (std::uint32_t slot = n; slot-- > 0;) {
        UnlockOne(slot);
      }
      throw;
    }
    for (std::uint32_t slot = n; slot-- > 0;) {
      UnlockOne(slot);
    }
    stats_.RecordCommit(CommitPath::kSerial);
  }

  StatsRegistry& stats() { return stats_; }

 private:
  // Local(), not Find(): a writer and a reader racing to a slot's first use
  // must agree on its mutex.
  void LockOne(std::uint32_t slot) {
    std::atomic<bool>& locked = mutexes_.Local(slot).locked;
    std::uint32_t spins = 0;
    for (;;) {
      RWLE_SCHED_POINT(kLockAcquire, &locked);
      bool expected = false;
      // Test-and-test-and-set: relaxed probe keeps the line shared while
      // busy; the acquire CAS pairs with UnlockOne()'s release so this
      // section sees the previous holder's writes.
      if (!locked.load(std::memory_order_relaxed) &&
          locked.compare_exchange_strong(expected, true, std::memory_order_acquire)) {
        // Private per-thread line: cheap for readers, n-fold for writers.
        CostMeter::Global().Charge(CostModel::kLockOp);
        return;
      }
      SpinBackoff(spins++);
    }
  }

  void UnlockOne(std::uint32_t slot) {
    std::atomic<bool>& locked = mutexes_.Local(slot).locked;
    RWLE_SCHED_POINT(kLockRelease, &locked);
    CostMeter::Global().Charge(CostModel::kLockOp);
    // Release: publishes the critical section to the next acquirer's CAS.
    locked.store(false, std::memory_order_release);
  }

  struct alignas(kCacheLineBytes) PrivateMutex {
    std::atomic<bool> locked{false};
  };

  SlotTable<PrivateMutex> mutexes_;
  StatsRegistry stats_;
};

}  // namespace rwle

#endif  // RWLE_SRC_LOCKS_BR_LOCK_H_
