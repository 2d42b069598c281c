// Unit tests for the preemption-deferral scope (src/htm/preemption.h) and
// its interaction with the fabric's yield model.
#include "src/htm/preemption.h"

#include <gtest/gtest.h>

#include "src/htm/htm_runtime.h"
#include "src/htm/thread_state.h"
#include "src/memory/tx_var.h"

namespace rwle {
namespace {

HtmRuntime& Rt() { return HtmRuntime::Global(); }

// The deferral state lives in the registered thread's block.
PreemptionState& State() { return CurrentThreadState()->preemption; }

class PreemptionTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_config_ = Rt().config(); }
  void TearDown() override { Rt().set_config(saved_config_); }
  HtmConfig saved_config_;
};

TEST_F(PreemptionTest, ScopeIncrementsAndDecrementsDepth) {
  const ScopedThreadSlot slot;
  PreemptionState& state = State();
  EXPECT_EQ(state.defer_depth, 0u);
  {
    const PreemptionDeferScope outer;
    EXPECT_EQ(state.defer_depth, 1u);
    {
      const PreemptionDeferScope inner;
      EXPECT_EQ(state.defer_depth, 2u);
    }
    EXPECT_EQ(state.defer_depth, 1u);
  }
  EXPECT_EQ(state.defer_depth, 0u);
}

TEST_F(PreemptionTest, PendingYieldClearedWhenOutermostScopeCloses) {
  const ScopedThreadSlot slot;
  PreemptionState& state = State();
  {
    const PreemptionDeferScope outer;
    {
      const PreemptionDeferScope inner;
      state.pending = true;
    }
    // Inner close must not deliver the yield: the outer scope still defers.
    EXPECT_TRUE(state.pending);
    EXPECT_EQ(state.defer_depth, 1u);
  }
  // Outermost close delivers (yields) and clears the flag.
  EXPECT_FALSE(state.pending);
  EXPECT_EQ(state.defer_depth, 0u);
}

TEST_F(PreemptionTest, FabricAccessesMarkPendingInsteadOfYieldingUnderScope) {
  const ScopedThreadSlot slot;
  HtmConfig config = saved_config_;
  config.yield_access_period = 4;  // preempt every 4th fabric access
  Rt().set_config(config);

  TxVar<std::uint64_t> cell;
  PreemptionState& state = State();
  {
    const PreemptionDeferScope defer;
    // Cross several yield periods; the yield must be deferred, not taken.
    for (int i = 0; i < 16; ++i) {
      (void)cell.Load();
    }
    EXPECT_TRUE(state.pending);
    EXPECT_EQ(state.defer_depth, 1u);
  }
  EXPECT_FALSE(state.pending);
}

TEST_F(PreemptionTest, YieldPeriodZeroDisablesPreemption) {
  const ScopedThreadSlot slot;
  HtmConfig config = saved_config_;
  config.yield_access_period = 0;
  Rt().set_config(config);

  TxVar<std::uint64_t> cell;
  PreemptionState& state = State();
  {
    const PreemptionDeferScope defer;
    for (int i = 0; i < 64; ++i) {
      (void)cell.Load();
    }
    EXPECT_FALSE(state.pending);  // nothing to defer
  }
}

TEST_F(PreemptionTest, StateIsPerThread) {
  const ScopedThreadSlot slot;
  PreemptionState& state = State();
  const PreemptionDeferScope scope;
  EXPECT_EQ(state.defer_depth, 1u);
  std::thread([] {
    // An unregistered thread has no block; its scopes defer nothing.
    { const PreemptionDeferScope unregistered; }
    // A freshly registered thread starts with clean deferral state.
    const ScopedThreadSlot other_slot;
    PreemptionState& other = State();
    EXPECT_EQ(other.defer_depth, 0u);
    EXPECT_FALSE(other.pending);
  }).join();
  EXPECT_EQ(state.defer_depth, 1u);
}

}  // namespace
}  // namespace rwle
