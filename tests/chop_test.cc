// Tests for the transaction chopping layer: chain commit/publication
// atomicity, read-own-chain-writes, unwind-on-piece-abort, the NS fallback
// ladder, and the chop stats block.
#include "src/chop/chopped_section.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/htm/thread_state.h"
#include "src/memory/tx_var.h"

namespace rwle {
namespace {

HtmRuntime& Rt() { return HtmRuntime::Global(); }

class ChopTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_config_ = Rt().config(); }
  void TearDown() override { Rt().set_config(saved_config_); }
  HtmConfig saved_config_;
};

struct alignas(kCacheLineBytes) Cell {
  TxVar<std::uint64_t> v;
};

TEST_F(ChopTest, ChainCommitsFootprintPastHtmCapacity) {
  ScopedThreadSlot slot;
  HtmConfig config = Rt().config();
  config.max_write_lines = 4;
  config.max_read_lines = 4;
  Rt().set_config(config);

  RwLeLock lock;
  ChoppedSection chopped(lock);
  std::vector<Cell> cells(32);

  // 32 written lines = 8x the per-transaction capacity: an unchopped write
  // section could only run serially, but 8 pieces of 4 stores each elide.
  chopped.Write(8, [&](std::size_t piece) {
    for (std::size_t i = piece * 4; i < piece * 4 + 4; ++i) {
      cells[i].v.Store(i + 1);
    }
  });

  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].v.LoadDirect(), i + 1);
  }
  const ThreadStats stats = lock.stats().Aggregate();
  EXPECT_EQ(stats.commits[static_cast<int>(CommitPath::kHtm)], 1u);
  EXPECT_EQ(stats.commits[static_cast<int>(CommitPath::kSerial)], 0u);
  EXPECT_EQ(stats.chop[static_cast<int>(ChopCounter::kChain)], 1u);
  EXPECT_EQ(stats.chop[static_cast<int>(ChopCounter::kPiece)], 8u);
  EXPECT_EQ(stats.chop[static_cast<int>(ChopCounter::kChainUnwind)], 0u);
  EXPECT_EQ(stats.chop[static_cast<int>(ChopCounter::kNsFallback)], 0u);
  EXPECT_GT(stats.chop[static_cast<int>(ChopCounter::kCarryoverBytes)], 0u);
}

TEST_F(ChopTest, LaterPiecesReadOwnChainWrites) {
  ScopedThreadSlot slot;
  RwLeLock lock;
  ChoppedSection chopped(lock);
  TxVar<std::uint64_t> x(0);
  TxVar<std::uint64_t> y(0);

  // Piece 1 reads piece 0's captured (not yet published) store through the
  // chain carryover.
  chopped.Write(2, [&](std::size_t piece) {
    if (piece == 0) {
      x.Store(5);
    } else {
      y.Store(x.Load() + 1);
    }
  });

  EXPECT_EQ(x.LoadDirect(), 5u);
  EXPECT_EQ(y.LoadDirect(), 6u);
}

TEST_F(ChopTest, LastPutWinsAcrossPieces) {
  ScopedThreadSlot slot;
  RwLeLock lock;
  ChoppedSection chopped(lock);
  TxVar<std::uint64_t> x(0);

  // Both pieces store the same cell; the carryover keeps one entry and the
  // later piece's value wins.
  chopped.Write(2, [&](std::size_t piece) { x.Store(piece == 0 ? 10 : 20); });

  EXPECT_EQ(x.LoadDirect(), 20u);
}

TEST_F(ChopTest, PersistentPieceAbortUnwindsWholeChain) {
  ScopedThreadSlot slot;
  RwLeLock lock;
  ChoppedSection chopped(lock);
  TxVar<std::uint64_t> x(0);
  std::uint32_t piece0_runs = 0;
  bool aborted_once = false;

  chopped.Write(2, [&](std::size_t piece) {
    if (piece == 0) {
      ++piece0_runs;
      x.Store(x.Load() + 1);
    } else if (!aborted_once) {
      // A persistent abort of piece 1 must discard piece 0's captured
      // store and restart the chain from piece 0.
      aborted_once = true;
      Rt().TxAbort(AbortCause::kCapacityWrite);  // throws
    }
  });

  EXPECT_EQ(piece0_runs, 2u);
  // The unwound attempt's increment was discarded: exactly one survives.
  EXPECT_EQ(x.LoadDirect(), 1u);
  const ThreadStats stats = lock.stats().Aggregate();
  EXPECT_EQ(stats.chop[static_cast<int>(ChopCounter::kChainUnwind)], 1u);
  EXPECT_EQ(stats.chop[static_cast<int>(ChopCounter::kPieceAbort)], 1u);
  EXPECT_EQ(stats.chop[static_cast<int>(ChopCounter::kChain)], 1u);
}

TEST_F(ChopTest, TransientPieceAbortRetriesPieceWithoutUnwind) {
  ScopedThreadSlot slot;
  RwLeLock lock;
  ChoppedSection chopped(lock);
  TxVar<std::uint64_t> x(0);
  std::uint32_t piece0_runs = 0;
  bool aborted_once = false;

  chopped.Write(2, [&](std::size_t piece) {
    if (piece == 0) {
      ++piece0_runs;
      x.Store(1);
    } else if (!aborted_once) {
      aborted_once = true;
      Rt().TxAbort(AbortCause::kConflictTx);  // transient: retry this piece
    }
  });

  EXPECT_EQ(piece0_runs, 1u);
  EXPECT_EQ(x.LoadDirect(), 1u);
  const ThreadStats stats = lock.stats().Aggregate();
  EXPECT_EQ(stats.chop[static_cast<int>(ChopCounter::kChainUnwind)], 0u);
  EXPECT_EQ(stats.chop[static_cast<int>(ChopCounter::kPieceAbort)], 1u);
}

TEST_F(ChopTest, ExhaustedUnwindsFallBackToNsPath) {
  ScopedThreadSlot slot;
  RwLeLock lock;
  ChopPolicy policy;
  policy.max_chain_unwinds = 1;
  ChoppedSection chopped(lock, policy);
  TxVar<std::uint64_t> x(0);

  chopped.Write(1, [&](std::size_t) {
    if (Rt().InTx()) {
      Rt().TxAbort(AbortCause::kCapacityWrite);  // every speculative attempt
    }
    x.Store(x.Load() + 1);  // reached only on the NS fallback
  });

  EXPECT_EQ(x.LoadDirect(), 1u);
  const ThreadStats stats = lock.stats().Aggregate();
  EXPECT_EQ(stats.commits[static_cast<int>(CommitPath::kSerial)], 1u);
  EXPECT_EQ(stats.chop[static_cast<int>(ChopCounter::kNsFallback)], 1u);
  EXPECT_EQ(stats.chop[static_cast<int>(ChopCounter::kChainUnwind)], 2u);
  EXPECT_EQ(stats.chop[static_cast<int>(ChopCounter::kChain)], 0u);
}

TEST_F(ChopTest, UserExceptionAbandonsChainAndReleasesLock) {
  ScopedThreadSlot slot;
  RwLeLock lock;
  ChoppedSection chopped(lock);
  TxVar<std::uint64_t> x(0);

  EXPECT_THROW(chopped.Write(2,
                             [&](std::size_t piece) {
                               if (piece == 0) {
                                 x.Store(99);
                               } else {
                                 throw std::runtime_error("user error");
                               }
                             }),
               std::runtime_error);

  // The abandoned chain published nothing and released everything: plain
  // sections (and another chain) work immediately afterwards.
  EXPECT_EQ(x.LoadDirect(), 0u);
  lock.Write([&] { x.Store(x.Load() + 1); });
  chopped.Write(1, [&](std::size_t) { x.Store(x.Load() + 1); });
  EXPECT_EQ(x.LoadDirect(), 2u);
}

// Readers must see a chain all-or-nothing: with two cells updated by
// different pieces, no reader ever observes them mid-chain (x != y).
TEST_F(ChopTest, ReadersNeverObserveTornChain) {
  constexpr std::uint64_t kChains = 200;
  RwLeLock lock;
  ChoppedSection chopped(lock);
  TxVar<std::uint64_t> x(0);
  TxVar<std::uint64_t> y(0);
  std::atomic<bool> done{false};
  std::atomic<bool> torn{false};

  std::thread writer([&] {
    ScopedThreadSlot slot;
    for (std::uint64_t i = 0; i < kChains; ++i) {
      chopped.Write(2, [&](std::size_t piece) {
        if (piece == 0) {
          x.Store(x.Load() + 1);
        } else {
          y.Store(y.Load() + 1);
        }
      });
    }
    done.store(true);
  });
  std::thread reader([&] {
    ScopedThreadSlot slot;
    while (!done.load()) {
      std::uint64_t seen_x = 0;
      std::uint64_t seen_y = 0;
      lock.Read([&] {
        seen_x = x.Load();
        seen_y = y.Load();
      });
      if (seen_x != seen_y) {
        torn.store(true);
      }
    }
  });
  writer.join();
  reader.join();

  EXPECT_FALSE(torn.load());
  EXPECT_EQ(x.LoadDirect(), kChains);
  EXPECT_EQ(y.LoadDirect(), kChains);
}

// Chopping on an rwle+bravo lock: readers that collide with a chain's
// publication window, or with the NS fallback a chain takes after
// max_chain_unwinds, park in the BRAVO table, are granted on release, and
// still see every chain all-or-nothing. Every NS window drains the table
// once, so revocations count the windows exactly.
TEST_F(ChopTest, BravoFallbackReadersParkAndSeeChainsWhole) {
  constexpr std::uint64_t kChains = 100;
  RwLePolicy lock_policy;
  lock_policy.fallback = FallbackScheme::kBravo;
  RwLeLock lock(lock_policy);
  ChopPolicy policy;
  policy.max_chain_unwinds = 1;
  ChoppedSection chopped(lock, policy);
  TxVar<std::uint64_t> x(0);
  TxVar<std::uint64_t> y(0);
  std::atomic<bool> done{false};
  std::atomic<bool> torn{false};

  std::thread writer([&] {
    ScopedThreadSlot slot;
    for (std::uint64_t i = 0; i < kChains; ++i) {
      // Odd chains exhaust their unwinds and run in the NS fallback.
      const bool force_fallback = i % 2 == 1;
      chopped.Write(2, [&](std::size_t piece) {
        if (piece == 0) {
          if (force_fallback && Rt().InTx()) {
            Rt().TxAbort(AbortCause::kCapacityWrite);  // throws
          }
          x.Store(x.Load() + 1);
          if (!Rt().InTx()) {
            // Hold the NS window open between the two stores so readers
            // collide with it and park.
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        } else {
          y.Store(y.Load() + 1);
        }
      });
    }
    done.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      ScopedThreadSlot slot;
      while (!done.load()) {
        std::uint64_t seen_x = 0;
        std::uint64_t seen_y = 0;
        lock.Read([&] {
          seen_x = x.Load();
          seen_y = y.Load();
        });
        if (seen_x != seen_y) {
          torn.store(true);
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) {
    t.join();
  }

  EXPECT_FALSE(torn.load());
  EXPECT_EQ(x.LoadDirect(), kChains);
  EXPECT_EQ(y.LoadDirect(), kChains);
  const StatsSnapshot stats = lock.stats().Aggregate().Snapshot();
  EXPECT_GT(stats.chop.chains, 0u);
  EXPECT_GE(stats.chop.ns_fallbacks, kChains / 2);
  EXPECT_EQ(stats.chop.chains + stats.chop.ns_fallbacks, kChains);
  EXPECT_GT(stats.bravo.parked_reads, 0u);
  EXPECT_EQ(stats.bravo.revocations, kChains);
}

// Concurrent-chain mode with disjoint per-writer stripes (the chopping
// precondition): all chains commit, nothing is lost, and readers of one
// stripe never see a torn chain.
TEST_F(ChopTest, ConcurrentChainsOnDisjointStripes) {
  constexpr std::uint32_t kWriters = 4;
  constexpr std::uint64_t kChainsPerWriter = 50;
  constexpr std::size_t kPieces = 4;
  constexpr std::size_t kCellsPerPiece = 2;

  HtmConfig config = Rt().config();
  config.max_write_lines = 4;
  Rt().set_config(config);

  RwLeLock lock;
  ChopPolicy policy;
  policy.serialize_chains = false;
  ChoppedSection chopped(lock, policy);
  std::vector<Cell> cells(kWriters * kPieces * kCellsPerPiece);

  std::vector<std::thread> writers;
  for (std::uint32_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      ScopedThreadSlot slot;
      Cell* stripe = &cells[w * kPieces * kCellsPerPiece];
      for (std::uint64_t i = 0; i < kChainsPerWriter; ++i) {
        chopped.Write(kPieces, [&](std::size_t piece) {
          for (std::size_t c = 0; c < kCellsPerPiece; ++c) {
            TxVar<std::uint64_t>& cell = stripe[piece * kCellsPerPiece + c].v;
            cell.Store(cell.Load() + 1);
          }
        });
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }

  for (const Cell& cell : cells) {
    EXPECT_EQ(cell.v.LoadDirect(), kChainsPerWriter);
  }
  const ThreadStats stats = lock.stats().Aggregate();
  EXPECT_EQ(stats.chop[static_cast<int>(ChopCounter::kChain)] +
                stats.chop[static_cast<int>(ChopCounter::kNsFallback)],
            std::uint64_t{kWriters} * kChainsPerWriter);
}

TEST_F(ChopTest, EmptySectionIsANoOp) {
  ScopedThreadSlot slot;
  RwLeLock lock;
  ChoppedSection chopped(lock);

  chopped.Write(0, [&](std::size_t) { FAIL() << "no piece should run"; });

  const ThreadStats stats = lock.stats().Aggregate();
  EXPECT_EQ(stats.chop[static_cast<int>(ChopCounter::kChain)], 0u);
}

}  // namespace
}  // namespace rwle
