// Unit tests for the synthetic paging model (src/memory/paging_model.h):
// TLB hit/miss accounting, per-thread isolation, conflict eviction in the
// direct-mapped table, and interrupt-driven transaction dooming through the
// fabric (the Figure 6 "low capacity / low contention" mechanism).
#include "src/memory/paging_model.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "src/common/thread_registry.h"
#include "src/htm/htm_runtime.h"
#include "src/htm/thread_state.h"
#include "src/memory/tx_var.h"

namespace rwle {
namespace {

HtmRuntime& Rt() { return HtmRuntime::Global(); }

// Synthesizes an address on page `page` (4 KiB pages by default config).
const void* PageAddress(std::uint64_t page, std::uint32_t page_shift = 12) {
  return reinterpret_cast<const void*>(page << page_shift);
}

class PagingModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_config_ = Rt().config();
    Rt().set_interrupt_source(nullptr);
  }
  void TearDown() override {
    Rt().set_interrupt_source(nullptr);
    Rt().set_config(saved_config_);
  }
  HtmConfig saved_config_;
};

TEST_F(PagingModelTest, FirstTouchFaultsRepeatTouchHits) {
  PagingModel model(PagingModel::Config{});
  EXPECT_TRUE(model.OnAccess(0, PageAddress(5)));   // cold miss
  EXPECT_FALSE(model.OnAccess(0, PageAddress(5)));  // now resident
  EXPECT_FALSE(model.OnAccess(0, PageAddress(5)));
  EXPECT_EQ(model.TotalFaults(), 1u);
}

TEST_F(PagingModelTest, SamePageDifferentOffsetHits) {
  PagingModel model(PagingModel::Config{});
  const auto base = reinterpret_cast<std::uintptr_t>(PageAddress(9));
  EXPECT_TRUE(model.OnAccess(0, reinterpret_cast<const void*>(base)));
  EXPECT_FALSE(model.OnAccess(0, reinterpret_cast<const void*>(base + 8)));
  EXPECT_FALSE(model.OnAccess(0, reinterpret_cast<const void*>(base + 4095)));
  EXPECT_EQ(model.TotalFaults(), 1u);
}

TEST_F(PagingModelTest, UnregisteredThreadsNeverFault) {
  PagingModel model(PagingModel::Config{});
  EXPECT_FALSE(model.OnAccess(kInvalidThreadSlot, PageAddress(5)));
  EXPECT_EQ(model.TotalFaults(), 0u);
}

TEST_F(PagingModelTest, TlbsArePerThread) {
  PagingModel model(PagingModel::Config{});
  EXPECT_TRUE(model.OnAccess(0, PageAddress(5)));
  // The same page is cold for a different thread slot.
  EXPECT_TRUE(model.OnAccess(1, PageAddress(5)));
  EXPECT_FALSE(model.OnAccess(0, PageAddress(5)));
  EXPECT_FALSE(model.OnAccess(1, PageAddress(5)));
  EXPECT_EQ(model.TotalFaults(), 2u);
}

TEST_F(PagingModelTest, DirectMappedConflictEvicts) {
  PagingModel::Config config;
  config.tlb_entries = 8;
  PagingModel model(config);
  // Pages p and p+8 map to the same direct-mapped entry: they evict each
  // other on every alternation.
  EXPECT_TRUE(model.OnAccess(0, PageAddress(3)));
  EXPECT_TRUE(model.OnAccess(0, PageAddress(11)));
  EXPECT_TRUE(model.OnAccess(0, PageAddress(3)));
  EXPECT_TRUE(model.OnAccess(0, PageAddress(11)));
  EXPECT_EQ(model.TotalFaults(), 4u);
}

TEST_F(PagingModelTest, ResetForgetsResidencyAndCounts) {
  PagingModel model(PagingModel::Config{});
  EXPECT_TRUE(model.OnAccess(0, PageAddress(5)));
  model.Reset();
  EXPECT_EQ(model.TotalFaults(), 0u);
  EXPECT_TRUE(model.OnAccess(0, PageAddress(5)));  // cold again
  EXPECT_EQ(model.TotalFaults(), 1u);
}

TEST_F(PagingModelTest, PageShiftControlsGranularity) {
  PagingModel::Config config;
  config.page_shift = 16;  // 64 KiB pages
  PagingModel model(config);
  const auto base = reinterpret_cast<std::uintptr_t>(PageAddress(1, 16));
  EXPECT_TRUE(model.OnAccess(0, reinterpret_cast<const void*>(base)));
  // 4 KiB apart but within one 64 KiB page: resident.
  EXPECT_FALSE(model.OnAccess(0, reinterpret_cast<const void*>(base + 4096)));
  EXPECT_EQ(model.TotalFaults(), 1u);
}

TEST_F(PagingModelTest, FaultInsideTransactionAbortsWithInterrupt) {
  const ScopedThreadSlot slot;
  PagingModel model(PagingModel::Config{});
  TxVar<std::uint64_t> cell;
  (void)cell.Load();  // make the page resident outside any transaction
  Rt().set_interrupt_source(&model);

  model.Reset();  // next touch faults
  Rt().TxBegin(TxKind::kHtm);
  try {
    (void)cell.Load();
    FAIL() << "expected a page-fault interrupt abort";
  } catch (const TxAbortException& abort) {
    EXPECT_EQ(abort.cause(), AbortCause::kInterrupt);
    EXPECT_FALSE(abort.persistent());  // transient: retry is sensible
  }
  EXPECT_GE(model.TotalFaults(), 1u);
}

TEST_F(PagingModelTest, ResidentPagesDoNotAbortTransactions) {
  const ScopedThreadSlot slot;
  PagingModel model(PagingModel::Config{});
  TxVar<std::uint64_t> cell;
  Rt().set_interrupt_source(&model);
  (void)cell.Load();  // faults once outside any transaction: now resident

  Rt().TxBegin(TxKind::kHtm);
  cell.Store(3);
  EXPECT_NO_THROW(Rt().TxCommit());
  EXPECT_EQ(cell.Load(), 3u);
}

TEST_F(PagingModelTest, NonTransactionalReadersAreUnaffectedByFaults) {
  const ScopedThreadSlot slot;
  PagingModel model(PagingModel::Config{});
  Rt().set_interrupt_source(&model);
  TxVar<std::uint64_t> cell(17);
  // Every access may fault (cold TLB) yet non-transactional readers just
  // pay the cost-model charge and proceed -- the RW-LE asymmetry.
  EXPECT_EQ(cell.Load(), 17u);
  EXPECT_EQ(cell.Load(), 17u);
}

}  // namespace
}  // namespace rwle
