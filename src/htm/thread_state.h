// Process-wide per-thread state: one cache-aligned block (transaction
// context, cost shard, preemption state) per slot that has registered, in
// one process-wide SlotTable. ScopedThreadSlot caches the owner's pointer in
// its one thread_local; other threads use ThreadStates().Find and
// ForEachPublished. Blocks are never freed or reset, so a recycled slot keeps
// its epoch and a previous occupant's owner token cannot doom the next
// occupant's transaction (DESIGN.md §12).
#ifndef RWLE_SRC_HTM_THREAD_STATE_H_
#define RWLE_SRC_HTM_THREAD_STATE_H_

#include <cstdint>

#include "src/common/cpu.h"
#include "src/common/slot_table.h"
#include "src/common/thread_registry.h"
#include "src/htm/tx_context.h"

namespace rwle {

// CostMeter's (src/stats/cost_meter.h); owner-written, unsynchronized.
struct CostTotals {
  std::uint64_t parallel = 0;
  std::uint64_t writer_serial = 0;
  std::uint64_t global_serial = 0;
};

struct CostShard {
  CostTotals totals;
  std::uint32_t writer_depth = 0;  // serial-section depths pick the bucket
  std::uint32_t global_depth = 0;
};

// HtmRuntime::MaybePreempt and PreemptionDeferScope (preemption.h).
struct PreemptionState {
  std::uint64_t access_counter = 0;  // fabric accesses since the last yield
  std::uint32_t defer_depth = 0;
  bool pending = false;
};

struct alignas(kCacheLineBytes) ThreadState {
  TxContext tx;
  CostShard cost;
  PreemptionState preemption;

};

SlotTable<ThreadState>& ThreadStates();

// Written only by ScopedThreadSlot; constinit, so reads need no TLS wrapper.
extern constinit thread_local ThreadState* tls_current_thread_state;

// The calling thread's block, or null if it holds no ScopedThreadSlot.
inline ThreadState* CurrentThreadState() { return tls_current_thread_state; }

inline std::uint32_t CurrentThreadSlot() {
  const ThreadState* state = CurrentThreadState();
  return state == nullptr ? kInvalidThreadSlot : state->tx.thread_slot();
}

// RAII registration: claims a registry slot and attaches its block.
// Benchmark workers and tests construct one at thread start.
class ScopedThreadSlot {
 public:
  ScopedThreadSlot();
  ~ScopedThreadSlot();

  ScopedThreadSlot(const ScopedThreadSlot&) = delete;
  ScopedThreadSlot& operator=(const ScopedThreadSlot&) = delete;

  std::uint32_t slot() const { return slot_; }

 private:
  std::uint32_t slot_;
};

}  // namespace rwle

#endif  // RWLE_SRC_HTM_THREAD_STATE_H_
