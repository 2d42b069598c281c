// TPC-C-lite tests: transaction semantics (money conservation, order-id
// density, delivery accounting) and cross-scheme concurrent integrity.
#include "src/workloads/tpcc/tpcc.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/htm/thread_state.h"
#include "src/locks/lock_factory.h"

namespace rwle {
namespace {

TpccConfig SmallConfig() {
  TpccConfig config;
  config.warehouses = 2;
  config.districts_per_warehouse = 4;
  config.customers_per_district = 16;
  config.items = 128;
  config.stock_per_warehouse = 128;
  config.order_ring_size = 32;
  config.max_order_lines = 10;
  config.stock_level_orders = 16;
  return config;
}

TEST(TpccTest, PaymentConservesMoney) {
  ScopedThreadSlot slot;
  TpccDb db(SmallConfig());
  db.Payment(0, 1, 2, 100);
  db.Payment(1, 0, 3, 250);
  EXPECT_EQ(db.TotalYtdDirect(), 350u);  // also checks warehouse == district
}

TEST(TpccTest, NewOrderAssignsDenseIds) {
  ScopedThreadSlot slot;
  TpccDb db(SmallConfig());
  const std::uint64_t items[] = {1, 2, 3, 4, 5};
  const std::uint64_t quantities[] = {1, 1, 1, 1, 1};
  EXPECT_EQ(db.NewOrder(0, 0, 0, items, quantities, 5), 0u);
  EXPECT_EQ(db.NewOrder(0, 0, 1, items, quantities, 5), 1u);
  EXPECT_EQ(db.NewOrder(0, 1, 0, items, quantities, 5), 0u);  // other district
  EXPECT_TRUE(db.CheckOrderRingsDirect());
}

TEST(TpccTest, OrderStatusSeesLastOrder) {
  ScopedThreadSlot slot;
  TpccDb db(SmallConfig());
  const std::uint64_t items[] = {7, 8};
  const std::uint64_t quantities[] = {2, 3};
  db.NewOrder(0, 0, 5, items, quantities, 2);
  // Status checksum includes the order lines; a second order changes it.
  const std::uint64_t first = db.OrderStatus(0, 0, 5);
  const std::uint64_t more_items[] = {9};
  const std::uint64_t more_quantities[] = {10};
  db.NewOrder(0, 0, 5, more_items, more_quantities, 1);
  const std::uint64_t second = db.OrderStatus(0, 0, 5);
  EXPECT_NE(first, second);
}

TEST(TpccTest, DeliveryCreditsCustomerAndAdvances) {
  ScopedThreadSlot slot;
  TpccDb db(SmallConfig());
  const std::uint64_t items[] = {1};
  const std::uint64_t quantities[] = {4};
  db.NewOrder(0, 0, 3, items, quantities, 1);
  db.NewOrder(0, 1, 4, items, quantities, 1);

  const std::uint64_t delivered = db.Delivery(0);
  EXPECT_EQ(delivered, 2u);
  // Order-status checksum now reflects a positive balance for customer 3.
  EXPECT_NE(db.OrderStatus(0, 0, 3), 0u);
  // Second delivery sweep has nothing left in those districts.
  EXPECT_EQ(db.Delivery(0), 0u);
}

TEST(TpccTest, StockLevelCountsLowStock) {
  ScopedThreadSlot slot;
  TpccConfig config = SmallConfig();
  TpccDb db(config);
  const std::uint64_t items[] = {10, 11, 12};
  const std::uint64_t quantities[] = {5, 5, 5};
  db.NewOrder(0, 2, 0, items, quantities, 3);
  // Threshold above any possible quantity: every scanned line counts.
  EXPECT_EQ(db.StockLevel(0, 2, 1000), 3u);
  // Threshold zero: nothing is below it.
  EXPECT_EQ(db.StockLevel(0, 2, 0), 0u);
}

TEST(TpccTest, RingOverwriteKeepsInvariants) {
  ScopedThreadSlot slot;
  TpccConfig config = SmallConfig();
  config.order_ring_size = 16;
  config.stock_level_orders = 8;
  TpccDb db(config);
  const std::uint64_t items[] = {1, 2};
  const std::uint64_t quantities[] = {1, 2};
  // Wrap the ring several times.
  for (int i = 0; i < 100; ++i) {
    db.NewOrder(1, 3, static_cast<std::uint32_t>(i % 16), items, quantities, 2);
  }
  EXPECT_TRUE(db.CheckOrderRingsDirect());
  (void)db.StockLevel(1, 3, 60);  // must not crash or loop
}

class TpccSchemeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TpccSchemeTest, ConcurrentMixConservesMoneyAndRings) {
  auto lock = MakeLock(GetParam());
  ASSERT_NE(lock, nullptr);
  TpccWorkload workload(SmallConfig());

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ScopedThreadSlot slot;
      Rng rng(7000 + t);
      for (int i = 0; i < 200; ++i) {
        workload.Op(*lock, rng, rng.NextBool(0.3));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  // TotalYtdDirect RWLE_CHECKs warehouse YTD == district YTD (atomicity of
  // Payment across rows); ring audit checks NewOrder's slot discipline.
  (void)workload.db().TotalYtdDirect();
  EXPECT_TRUE(workload.db().CheckOrderRingsDirect());
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, TpccSchemeTest,
                         ::testing::Values("rwle-opt", "rwle-pes", "hle", "brlock", "rwl",
                                           "sgl"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (auto& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace rwle
