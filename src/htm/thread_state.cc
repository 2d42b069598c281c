#include "src/htm/thread_state.h"

#ifdef RWLE_ANALYSIS
#include "src/common/analysis_hooks.h"
#endif
#include "src/common/check.h"
#include "src/common/sched_hooks.h"

namespace rwle {

constinit thread_local ThreadState* tls_current_thread_state = nullptr;

SlotTable<ThreadState>& ThreadStates() {
  // Never destroyed: a thread still running at exit keeps valid blocks.
  static auto* const table = new SlotTable<ThreadState>();
  return *table;
}

ScopedThreadSlot::ScopedThreadSlot() : slot_(ThreadRegistry::Global().Register()) {
  RWLE_CHECK(CurrentThreadState() == nullptr &&
             "thread registered twice (nested ScopedThreadSlot)");
  ThreadState& state = ThreadStates().Local(slot_);
  state.tx.thread_slot_ = slot_;  // the same value for every occupant
  tls_current_thread_state = &state;
#ifdef RWLE_ANALYSIS
  analysis_hooks::NotifyThreadRegister(slot_);
#endif
  // After registration, so a context switch here cannot reorder slot
  // assignment: under the scheduler, slots are handed out in schedule order.
  RWLE_SCHED_POINT(kThreadRegister, nullptr);
}

ScopedThreadSlot::~ScopedThreadSlot() {
  RWLE_SCHED_POINT(kThreadUnregister, nullptr);
#ifdef RWLE_ANALYSIS
  analysis_hooks::NotifyThreadUnregister(slot_);
#endif
  tls_current_thread_state = nullptr;
  ThreadRegistry::Global().Unregister(slot_);
}

}  // namespace rwle
