// TxVar<T> payload round-trips for every supported type category, plus the
// Direct (fabric-bypassing) accessors and paging-model behaviour.
#include "src/memory/tx_var.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "src/common/thread_registry.h"
#include "src/htm/thread_state.h"
#include "src/memory/paging_model.h"

namespace rwle {
namespace {

TEST(TxVarTest, RoundTripsUnsigned64) {
  TxVar<std::uint64_t> cell(0);
  cell.Store(0xDEADBEEFCAFEBABEull);
  EXPECT_EQ(cell.Load(), 0xDEADBEEFCAFEBABEull);
}

TEST(TxVarTest, RoundTripsSigned) {
  TxVar<std::int64_t> cell(-1);
  EXPECT_EQ(cell.Load(), -1);
  cell.Store(-123456789);
  EXPECT_EQ(cell.Load(), -123456789);
}

TEST(TxVarTest, RoundTripsSmallInts) {
  TxVar<std::int32_t> cell32(-7);
  EXPECT_EQ(cell32.Load(), -7);
  TxVar<std::uint16_t> cell16(65535);
  EXPECT_EQ(cell16.Load(), 65535);
  TxVar<bool> flag(true);
  EXPECT_TRUE(flag.Load());
  flag.Store(false);
  EXPECT_FALSE(flag.Load());
}

TEST(TxVarTest, RoundTripsDouble) {
  TxVar<double> cell(3.25);
  EXPECT_DOUBLE_EQ(cell.Load(), 3.25);
  cell.Store(-0.0);
  EXPECT_DOUBLE_EQ(cell.Load(), -0.0);
}

TEST(TxVarTest, RoundTripsPointer) {
  int target = 5;
  TxVar<int*> cell(nullptr);
  EXPECT_EQ(cell.Load(), nullptr);
  cell.Store(&target);
  EXPECT_EQ(cell.Load(), &target);
  EXPECT_EQ(*cell.Load(), 5);
}

enum class Color : std::uint8_t { kRed = 1, kBlue = 2 };

TEST(TxVarTest, RoundTripsEnum) {
  TxVar<Color> cell(Color::kRed);
  EXPECT_EQ(cell.Load(), Color::kRed);
  cell.Store(Color::kBlue);
  EXPECT_EQ(cell.Load(), Color::kBlue);
}

TEST(TxVarTest, DirectAccessorsBypassFabricButSeeSameBits) {
  TxVar<std::uint64_t> cell(11);
  EXPECT_EQ(cell.LoadDirect(), 11u);
  cell.StoreDirect(12);
  EXPECT_EQ(cell.Load(), 12u);
  cell.Store(13);
  EXPECT_EQ(cell.LoadDirect(), 13u);
}

TEST(TxVarTest, DefaultConstructedIsZeroBits) {
  TxVar<std::uint64_t> cell;
  EXPECT_EQ(cell.Load(), 0u);
  TxVar<int*> pointer;
  EXPECT_EQ(pointer.Load(), nullptr);
}

TEST(PagingModelTest, RepeatedPageDoesNotRefault) {
  ScopedThreadSlot slot;
  PagingModel paging(PagingModel::Config{.tlb_entries = 8, .page_shift = 12});
  char* page = reinterpret_cast<char*>(0x10000);
  EXPECT_TRUE(paging.OnAccess(slot.slot(), page));        // cold
  EXPECT_FALSE(paging.OnAccess(slot.slot(), page));       // warm
  EXPECT_FALSE(paging.OnAccess(slot.slot(), page + 64));  // same page
  EXPECT_EQ(paging.TotalFaults(), 1u);
}

TEST(PagingModelTest, ConflictingPagesEvictEachOther) {
  ScopedThreadSlot slot;
  PagingModel paging(PagingModel::Config{.tlb_entries = 4, .page_shift = 12});
  // Pages 0 and 4 map to the same direct-mapped entry (page % 4).
  char* a = reinterpret_cast<char*>(0x0000);
  char* b = reinterpret_cast<char*>(0x4000);
  EXPECT_TRUE(paging.OnAccess(slot.slot(), a));
  EXPECT_TRUE(paging.OnAccess(slot.slot(), b));
  EXPECT_TRUE(paging.OnAccess(slot.slot(), a));  // evicted by b
  EXPECT_EQ(paging.TotalFaults(), 3u);
}

TEST(PagingModelTest, ThreadsHavePrivateTlbs) {
  PagingModel paging(PagingModel::Config{.tlb_entries = 8, .page_shift = 12});
  char* page = reinterpret_cast<char*>(0x20000);
  EXPECT_TRUE(paging.OnAccess(0, page));
  EXPECT_FALSE(paging.OnAccess(0, page));
  EXPECT_TRUE(paging.OnAccess(1, page));  // other thread: own cold TLB
}

TEST(PagingModelTest, UnregisteredThreadNeverFaults) {
  PagingModel paging(PagingModel::Config{});
  EXPECT_FALSE(paging.OnAccess(kInvalidThreadSlot, reinterpret_cast<char*>(0x30000)));
  EXPECT_EQ(paging.TotalFaults(), 0u);
}

TEST(PagingModelTest, ResetClearsResidency) {
  ScopedThreadSlot slot;
  PagingModel paging(PagingModel::Config{.tlb_entries = 8, .page_shift = 12});
  char* page = reinterpret_cast<char*>(0x40000);
  EXPECT_TRUE(paging.OnAccess(slot.slot(), page));
  paging.Reset();
  EXPECT_EQ(paging.TotalFaults(), 0u);
  EXPECT_TRUE(paging.OnAccess(slot.slot(), page));
}

}  // namespace
}  // namespace rwle
