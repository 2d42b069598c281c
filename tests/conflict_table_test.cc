// Unit tests for conflict-table primitives: owner-token packing, reader-bit
// manipulation across the word-major planes, address-to-slot mapping (same
// line -> same slot), the status-word packing used for cross-thread dooming,
// and the fabric's resident-set footprint.
#include "src/htm/conflict_table.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/cpu.h"
#include "src/common/thread_registry.h"
#include "src/htm/htm_runtime.h"
#include "src/htm/thread_state.h"
#include "src/htm/tx_context.h"
#include "tests/resident_set.h"

namespace rwle {
namespace {

struct alignas(kCacheLineBytes) Line {
  std::atomic<std::uint64_t> cell{0};
};

// The process-wide fabric costs what a run uses. Building HtmRuntime::Global()
// touches at most 128 KiB: no per-thread state is built up front (it was
// 360 KiB while the runtime and the cost meter held eager kMaxThreads
// arrays). Having 4 threads run transactions over 10 240 distinct lines
// then adds at most 1.75 MiB in all -- ~1 MiB of hot records of the touched
// slots, the 4 threads' ThreadState blocks, their stacks and buffers;
// measured 1.22-1.41 MiB on x86-64 Linux -- not the ~9 MB a table sized to
// kMaxThreads readers per slot would. It must be the first case here to
// touch HtmRuntime::Global(); every other case in this binary uses a
// private ConflictTable, so the order within the binary does not matter.
TEST(FabricFootprintTest, ResidentSetFollowsTheThreadsThatRun) {
#if !defined(__linux__)
  GTEST_SKIP() << "resident-set size is read from /proc/self/statm";
#elif defined(RWLE_RSS_IS_INSTRUMENTED)
  GTEST_SKIP() << "sanitizer shadow memory inflates the resident set";
#else
  constexpr std::uint32_t kThreads = 4;
  constexpr std::size_t kLines = 10240;
  constexpr std::size_t kLinesPerTx = 16;
  constexpr std::int64_t kConstructBudgetBytes = 128 * 1024;
  constexpr std::int64_t kBudgetBytes = 1792 * 1024;
  // The cells themselves are allocated and touched before the baseline.
  std::vector<Line> lines(kLines);

  const std::int64_t before = ResidentBytes();
  HtmRuntime& rt = HtmRuntime::Global();
  const std::int64_t constructed = ResidentBytes() - before;
  if (rt.analysis_observer() != nullptr) {
    GTEST_SKIP() << "txsan's shadow state grows with every cell it observes";
  }
  EXPECT_LE(constructed, kConstructBudgetBytes)
      << "constructing HtmRuntime::Global() grew the resident set by " << constructed << " B";
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const ScopedThreadSlot slot;
      const std::size_t end = (t + 1) * kLines / kThreads;
      for (std::size_t first = t * kLines / kThreads; first < end; first += kLinesPerTx) {
        const std::size_t last = first + kLinesPerTx < end ? first + kLinesPerTx : end;
        for (;;) {
          try {
            rt.TxBegin(TxKind::kHtm);
            for (std::size_t i = first; i < last; ++i) {
              rt.CellStore(&lines[i].cell, rt.CellLoad(&lines[i].cell) + 1);
            }
            rt.TxCommit();
            break;
          } catch (const TxAbortException&) {
            // Lines of different threads can alias to one slot; retry.
          }
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const std::int64_t grown = ResidentBytes() - before;
  EXPECT_LE(grown, kBudgetBytes) << "fabric plus " << kThreads << " threads over " << kLines
                                 << " lines grew the resident set by " << grown << " B";
  for (const Line& line : lines) {
    ASSERT_EQ(line.cell.load(), 1u);
  }
#endif
}

TEST(OwnerTokenTest, PacksAndUnpacksSlotAndEpoch) {
  // Slots past 255 exercise the widened 12-bit slot field (the pre-widening
  // packing kept only 8 bits and would alias these).
  for (std::uint32_t slot : {0u, 1u, 63u, 127u, 255u, 256u, kMaxThreads - 1}) {
    for (std::uint64_t epoch : {0ull, 1ull, 4096ull, (1ull << 40), (1ull << 48)}) {
      const OwnerToken token = MakeOwnerToken(slot, epoch);
      EXPECT_NE(token, 0u);  // 0 is reserved for "unowned"
      EXPECT_EQ(OwnerTokenSlot(token), slot);
      EXPECT_EQ(OwnerTokenEpoch(token), epoch);
    }
  }
}

TEST(OwnerTokenTest, DistinctHighSlotsYieldDistinctTokens) {
  // Adjacent high slots under one epoch must never collide; this is exactly
  // the aliasing an 8-bit field would produce for slots 256 apart.
  const std::uint64_t epoch = 77;
  EXPECT_NE(MakeOwnerToken(0, epoch), MakeOwnerToken(256, epoch));
  EXPECT_NE(MakeOwnerToken(1, epoch), MakeOwnerToken(257, epoch));
  EXPECT_NE(MakeOwnerToken(kMaxThreads - 1, epoch),
            MakeOwnerToken(kMaxThreads - 257, epoch));
}

TEST(StatusWordTest, PacksPhaseCauseEpoch) {
  const std::uint64_t status =
      PackStatus(12345, AbortCause::kCapacityWrite, TxPhase::kDoomed);
  EXPECT_EQ(StatusEpoch(status), 12345u);
  EXPECT_EQ(StatusCause(status), AbortCause::kCapacityWrite);
  EXPECT_EQ(StatusPhase(status), TxPhase::kDoomed);
}

TEST(ConflictTableTest, SameLineMapsToSameSlot) {
  auto table = std::make_unique<ConflictTable>();
  alignas(kCacheLineBytes) char line[kCacheLineBytes * 2];
  EXPECT_EQ(&table->SlotFor(&line[0]), &table->SlotFor(&line[kCacheLineBytes - 1]));
  // Adjacent lines land in different slots with overwhelming probability
  // (the mixer spreads sequential lines).
  EXPECT_NE(&table->SlotFor(&line[0]), &table->SlotFor(&line[kCacheLineBytes]));
  EXPECT_EQ(table->IndexFor(&line[0]), table->IndexFor(&line[8]));
}

TEST(ConflictTableTest, SlotAtMatchesIndexFor) {
  auto table = std::make_unique<ConflictTable>();
  int object = 0;
  EXPECT_EQ(&table->SlotAt(table->IndexFor(&object)), &table->SlotFor(&object));
}

TEST(ConflictTableTest, ReaderBitsAreIndependent) {
  auto table = std::make_unique<ConflictTable>();
  const std::uint32_t a = 7;
  for (std::uint32_t thread : {0u, 5u, 63u, 64u, 127u, 128u, 255u, 256u, 511u,
                               kMaxThreads - 1}) {
    EXPECT_FALSE(table->TestReaderBit(a, thread));
    table->SetReaderBit(a, thread);
    EXPECT_TRUE(table->TestReaderBit(a, thread));
  }
  // Clearing one leaves the others, including across reader-word boundaries.
  table->ClearReaderBit(a, 64);
  EXPECT_FALSE(table->TestReaderBit(a, 64));
  EXPECT_TRUE(table->TestReaderBit(a, 63));
  EXPECT_TRUE(table->TestReaderBit(a, 127));
  table->ClearReaderBit(a, 256);
  EXPECT_FALSE(table->TestReaderBit(a, 256));
  EXPECT_TRUE(table->TestReaderBit(a, 255));
  EXPECT_TRUE(table->TestReaderBit(a, kMaxThreads - 1));
}

// Word 0 lives in the hot record and words 1.. in their own planes; a bit
// set for one thread slot at one line slot shows up nowhere else.
TEST(ConflictTableTest, ReaderBitsStayIndependentAcrossPlanes) {
  auto table = std::make_unique<ConflictTable>();
  const std::uint32_t threads[] = {0, 63, 64, 127, 1023};
  const std::uint32_t indices[] = {0, 1, 4096, ConflictTable::kSlotCount - 1};
  for (const std::uint32_t index : indices) {
    for (const std::uint32_t thread : threads) {
      table->SetReaderBit(index, thread);
      for (const std::uint32_t other_index : indices) {
        for (std::uint32_t word = 0; word < ConflictTable::kReaderWords; ++word) {
          const std::uint64_t expected =
              other_index == index && word == thread / 64 ? std::uint64_t{1} << (thread % 64) : 0;
          EXPECT_EQ(table->ReaderWord(other_index, word).load(), expected)
              << "set thread " << thread << " at slot " << index << "; read word " << word
              << " at slot " << other_index;
        }
      }
      EXPECT_EQ(table->SlotAt(index).writer().load(), 0u);
      table->ClearReaderBit(index, thread);
      EXPECT_FALSE(table->TestReaderBit(index, thread));
    }
  }
}

TEST(ConflictTableTest, WriterFieldStartsUnowned) {
  auto table = std::make_unique<ConflictTable>();
  for (const std::uint32_t index : {0u, 12345u, ConflictTable::kSlotCount - 1}) {
    EXPECT_EQ(table->SlotAt(index).writer().load(), 0u);
    for (std::uint32_t word = 0; word < ConflictTable::kReaderWords; ++word) {
      EXPECT_EQ(table->ReaderWord(index, word).load(), 0u);
    }
  }
}

}  // namespace
}  // namespace rwle
