// HTM playground: drives the simulated POWER8 TM facility directly --
// regular transactions, rollback-only transactions (untracked loads),
// suspend/resume escape actions, capacity aborts, and cross-thread
// conflict dooming. A guided tour of the substrate RW-LE is built on.
//
// Usage: ./examples/htm_playground
#include <cstdio>
#include <thread>
#include <vector>

#include "src/htm/htm_runtime.h"
#include "src/htm/thread_state.h"
#include "src/memory/tx_var.h"

namespace {

struct alignas(rwle::kCacheLineBytes) Cell {
  rwle::TxVar<std::uint64_t> v;
};

}  // namespace

int main() {
  rwle::ScopedThreadSlot slot;
  rwle::HtmRuntime& runtime = rwle::HtmRuntime::Global();

  // 1. Speculative buffering: stores are invisible until commit.
  {
    rwle::TxVar<std::uint64_t> cell(1);
    runtime.TxBegin(rwle::TxKind::kHtm);
    cell.Store(2);
    std::printf("[buffering] backing=%llu (still old), tx view=%llu\n",
                static_cast<unsigned long long>(cell.LoadDirect()),
                static_cast<unsigned long long>(cell.Load()));
    runtime.TxCommit();
    std::printf("[buffering] after commit backing=%llu\n",
                static_cast<unsigned long long>(cell.LoadDirect()));
  }

  // 2. Capacity: a regular transaction dies reading too many lines; a
  //    rollback-only transaction sails through (loads are untracked).
  {
    std::vector<Cell> cells(200);  // 200 lines >> 64-line read capacity
    bool htm_aborted = false;
    try {
      runtime.TxBegin(rwle::TxKind::kHtm);
      std::uint64_t sum = 0;
      for (auto& cell : cells) {
        sum += cell.v.Load();
      }
      runtime.TxCommit();
    } catch (const rwle::TxAbortException& abort) {
      htm_aborted = true;
      std::printf("[capacity] HTM aborted: %s (persistent=%d)\n", abort.what(),
                  abort.persistent());
    }

    runtime.TxBegin(rwle::TxKind::kRot);
    std::uint64_t sum = 0;
    for (auto& cell : cells) {
      sum += cell.v.Load();
    }
    cells[0].v.Store(sum);
    runtime.TxCommit();
    std::printf("[capacity] ROT with the same read footprint committed (htm aborted: %d)\n",
                htm_aborted);
  }

  // 3. Suspend/resume: escape actions run outside the speculation, and a
  //    conflicting reader dooms the suspended transaction.
  {
    rwle::TxVar<std::uint64_t> data(10);
    std::atomic<int> phase{0};
    std::thread writer([&] {
      rwle::ScopedThreadSlot writer_slot;
      runtime.TxBegin(rwle::TxKind::kHtm);
      data.Store(20);
      runtime.TxSuspend();
      std::printf("[suspend] writer suspended; doing non-transactional work...\n");
      phase.store(1);
      while (phase.load() != 2) {
        std::this_thread::yield();
      }
      runtime.TxResume();
      try {
        runtime.TxCommit();
        std::printf("[suspend] writer committed (reader was too late)\n");
      } catch (const rwle::TxAbortException&) {
        std::printf("[suspend] writer aborted: a reader touched its write set\n");
      }
    });
    while (phase.load() != 1) {
      std::this_thread::yield();
    }
    std::printf("[suspend] reader sees pre-transaction value: %llu\n",
                static_cast<unsigned long long>(data.Load()));
    phase.store(2);
    writer.join();
    std::printf("[suspend] final value: %llu\n",
                static_cast<unsigned long long>(data.LoadDirect()));
  }

  return 0;
}
