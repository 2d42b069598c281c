// Preemption-deferral scope for the fabric's preemption model.
//
// The preemption model (HtmConfig::yield_access_period) yields inside
// fabric accesses so critical sections overlap in time on hosts with fewer
// cores than worker threads. Left unchecked, it parks *readers* inside
// their critical sections almost permanently (a reader's only fabric
// accesses are its in-section loads), which inverts reality: on parallel
// hardware a read section completes quickly relative to a writer's
// speculation window. Read-side sections therefore wrap their bodies in a
// PreemptionDeferScope: the yield is postponed until the scope closes.
// Writers stay fully preemptible, which is exactly where conflict windows
// come from.
#ifndef RWLE_SRC_HTM_PREEMPTION_H_
#define RWLE_SRC_HTM_PREEMPTION_H_

#include <thread>

#include "src/common/sched_hooks.h"
#include "src/htm/thread_state.h"

namespace rwle {

// The single yield primitive of the preemption model, shared by MaybePreempt
// (immediate delivery) and PreemptionDeferScope (deferred delivery), so both
// deliveries go through the same scheduling point and the preemption and
// exploration models cannot diverge: under the cooperative scheduler a
// preemption becomes a kPreemptYield scheduling decision; without it, the
// plain OS yield.
inline void PreemptionYield() {
#ifdef RWLE_SCHED
  if (sched_hooks::NotifySchedPoint(sched_hooks::SchedPoint::kPreemptYield,
                                    nullptr)) {
    return;
  }
#endif
  std::this_thread::yield();
}

// The state lives in the thread's ThreadState block. An unregistered thread
// is never preempted, so its scopes have nothing to defer and do nothing.
class PreemptionDeferScope {
 public:
  PreemptionDeferScope() : self_(CurrentThreadState()) {
    if (self_ != nullptr) {
      ++self_->preemption.defer_depth;
    }
  }

  ~PreemptionDeferScope() {
    PreemptionState* state = self_ == nullptr ? nullptr : &self_->preemption;
    if (state != nullptr && --state->defer_depth == 0 && state->pending) {
      state->pending = false;
      PreemptionYield();
    }
  }

  PreemptionDeferScope(const PreemptionDeferScope&) = delete;
  PreemptionDeferScope& operator=(const PreemptionDeferScope&) = delete;

 private:
  ThreadState* self_;
};

}  // namespace rwle

#endif  // RWLE_SRC_HTM_PREEMPTION_H_
