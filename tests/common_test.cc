// Tests for the common substrate: flags, rng, tables, thread registry,
// barrier, function_ref.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/common/barrier.h"
#include "src/common/flags.h"
#include "src/common/function_ref.h"
#include "src/common/rng.h"
#include "src/common/table.h"
#include "src/common/thread_registry.h"
#include "src/htm/thread_state.h"

namespace rwle {
namespace {

TEST(FlagsTest, ParsesAllTypes) {
  std::int64_t count = 1;
  std::uint64_t ops = 2;
  double ratio = 0.5;
  bool verbose = false;
  std::string name = "x";

  FlagSet flags("test");
  flags.AddInt("count", &count, "a count");
  flags.AddUint("ops", &ops, "ops");
  flags.AddDouble("ratio", &ratio, "ratio");
  flags.AddBool("verbose", &verbose, "verbosity");
  flags.AddString("name", &name, "name");

  const char* argv[] = {"prog",          "--count=-3", "--ops", "100", "--ratio=0.25",
                        "--verbose",     "--name=abc"};
  EXPECT_TRUE(flags.Parse(7, const_cast<char**>(argv)));
  EXPECT_EQ(count, -3);
  EXPECT_EQ(ops, 100u);
  EXPECT_DOUBLE_EQ(ratio, 0.25);
  EXPECT_TRUE(verbose);
  EXPECT_EQ(name, "abc");
}

TEST(FlagsTest, NegatedBool) {
  bool flag = true;
  FlagSet flags("test");
  flags.AddBool("fast", &flag, "speed");
  const char* argv[] = {"prog", "--no-fast"};
  EXPECT_TRUE(flags.Parse(2, const_cast<char**>(argv)));
  EXPECT_FALSE(flag);
}

TEST(FlagsTest, RejectsUnknownAndMalformed) {
  std::int64_t count = 0;
  FlagSet flags("test");
  flags.AddInt("count", &count, "a count");

  const char* bad1[] = {"prog", "--nope=1"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(bad1)));
  const char* bad2[] = {"prog", "--count=abc"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(bad2)));
  const char* bad3[] = {"prog", "--count"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(bad3)));
  const char* bad4[] = {"prog", "stray"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(bad4)));
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  bool all_equal = true;
  bool any_diff_from_c = false;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t va = a.Next();
    const std::uint64_t vb = b.Next();
    const std::uint64_t vc = c.Next();
    all_equal = all_equal && (va == vb);
    any_diff_from_c = any_diff_from_c || (va != vc);
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_from_c);
}

TEST(RngTest, BoundsRespected) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
    const std::uint64_t v = rng.NextInRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, ZipfSkewsTowardsHead) {
  Rng rng(3);
  ZipfGenerator zipf(100, 0.99);
  std::uint64_t head = 0, tail = 0;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = zipf.Next(rng);
    ASSERT_LT(v, 100u);
    if (v < 10) {
      ++head;
    }
    if (v >= 90) {
      ++tail;
    }
  }
  EXPECT_GT(head, tail * 3);
}

TEST(TableTest, AsciiAndCsvRendering) {
  Table table("demo", {"a", "bb"});
  table.AddRow({"1", "2"});
  table.AddRow({"333", "4"});
  const std::string ascii = table.ToAscii();
  EXPECT_NE(ascii.find("demo"), std::string::npos);
  EXPECT_NE(ascii.find("333"), std::string::npos);
  const std::string csv = table.ToCsv();
  EXPECT_NE(csv.find("a,bb"), std::string::npos);
  EXPECT_NE(csv.find("333,4"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TableTest, NumberFormatting) {
  EXPECT_EQ(Table::Num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::Pct(0.5, 1), "50.0%");
}

TEST(ThreadRegistryTest, SequentialRegistrationsRecycleSlots) {
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 8; ++i) {
    std::thread worker([&] {
      ScopedThreadSlot slot;
      seen.insert(slot.slot());
    });
    worker.join();
  }
  // Slots are recycled, so 8 sequential threads share very few slots.
  EXPECT_LE(seen.size(), 2u);
  ScopedThreadSlot slot;
  EXPECT_LT(slot.slot(), 8u);
  EXPECT_EQ(CurrentThreadSlot(), slot.slot());
}

TEST(ThreadRegistryTest, FullWidthRegistrationAndRecycling) {
  // Drive the registry to capacity directly (no OS threads needed): every
  // free slot up to kMaxThreads must be claimable exactly once, including
  // the slots past the old 8-bit OwnerToken ceiling, and all of them must
  // recycle cleanly afterwards.
  ThreadRegistry& registry = ThreadRegistry::Global();
  std::uint32_t already_in_use = 0;
  for (std::uint32_t slot = 0; slot < kMaxThreads; ++slot) {
    if (registry.IsInUse(slot)) {
      ++already_in_use;
    }
  }
  std::vector<std::uint32_t> claimed;
  std::set<std::uint32_t> unique;
  for (std::uint32_t i = 0; i < kMaxThreads - already_in_use; ++i) {
    const std::uint32_t slot = registry.Register();
    claimed.push_back(slot);
    EXPECT_TRUE(unique.insert(slot).second) << "slot handed out twice: " << slot;
    EXPECT_TRUE(registry.IsInUse(slot));
  }
  // The table is now full: the highest slot was handed out and the scan
  // watermark covers the whole table.
  EXPECT_EQ(unique.count(kMaxThreads - 1), 1u);
  EXPECT_EQ(registry.HighWatermark(), kMaxThreads);
  EXPECT_GT(*unique.rbegin(), 255u);  // beyond the old 8-bit ceiling
  for (const std::uint32_t slot : claimed) {
    registry.Unregister(slot);
    EXPECT_FALSE(registry.IsInUse(slot));
  }
  // Recycling: the lowest freed slot comes back first.
  const std::uint32_t recycled = registry.Register();
  EXPECT_EQ(recycled, *unique.begin());
  registry.Unregister(recycled);
}

TEST(ThreadRegistryTest, ConcurrentRegistrationsAreUnique) {
  constexpr int kThreads = 16;
  std::atomic<std::uint64_t> bitmap{0};
  std::atomic<bool> duplicate{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      ScopedThreadSlot slot;
      const std::uint64_t bit = 1ull << (slot.slot() % 64);
      if (bitmap.fetch_or(bit) & bit) {
        duplicate.store(true);
      }
      std::this_thread::yield();
      bitmap.fetch_and(~bit);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_FALSE(duplicate.load());
}

TEST(SpinBarrierTest, ReleasesAllAndIsReusable) {
  constexpr int kThreads = 4;
  SpinBarrier barrier(kThreads);
  std::atomic<int> phase_counter{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (int round = 0; round < 3; ++round) {
        phase_counter.fetch_add(1);
        barrier.Wait();
        // After the barrier, every participant of this round arrived.
        EXPECT_GE(phase_counter.load(), (round + 1) * kThreads);
        barrier.Wait();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(phase_counter.load(), 3 * kThreads);
}

TEST(FunctionRefTest, InvokesCallable) {
  int calls = 0;
  auto lambda = [&] { ++calls; };
  FunctionRef ref(lambda);
  ref();
  ref();
  EXPECT_EQ(calls, 2);
}

}  // namespace
}  // namespace rwle
