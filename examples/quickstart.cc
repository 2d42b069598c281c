// Quickstart: elide a read-write lock with RW-LE.
//
// Build & run:   ./examples/quickstart
//
// Shows the three things every RW-LE program does:
//   1. register each thread (ScopedThreadSlot),
//   2. put shared state in TxVar cells,
//   3. wrap critical sections in lock.Read(...) / lock.Write(...).
// Readers run uninstrumented; writers speculate (HTM -> ROT -> serial) and
// drain readers before committing. The commit breakdown printed at the end
// shows which paths were used.
#include <cstdio>
#include <thread>
#include <vector>

#include "src/htm/thread_state.h"
#include "src/memory/tx_var.h"
#include "src/rwle/rwle_lock.h"

int main() {
  rwle::RwLeLock lock;

  // A tiny shared structure: a point that must always be read consistently.
  rwle::TxVar<std::uint64_t> x(0);
  rwle::TxVar<std::uint64_t> y(0);

  constexpr int kReaders = 3;
  constexpr int kWrites = 2000;

  std::vector<std::thread> threads;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> inconsistent{0};

  // Writers keep the invariant x == y. The yield keeps readers and writer
  // interleaved even on a single-CPU host.
  threads.emplace_back([&] {
    rwle::ScopedThreadSlot slot;
    for (std::uint64_t i = 1; i <= kWrites; ++i) {
      lock.Write([&] {
        x.Store(i);
        y.Store(i);
      });
      if (i % 8 == 0) {
        std::this_thread::yield();
      }
    }
    done.store(true);
  });

  // Readers check it, concurrently, without ever taking a lock physically.
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      rwle::ScopedThreadSlot slot;
      while (!done.load()) {
        lock.Read([&] {
          if (x.Load() != y.Load()) {
            inconsistent.fetch_add(1);
          }
        });
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }

  const rwle::ThreadStats stats = lock.stats().Aggregate();
  std::printf("writes: %d, final x = y = %llu, inconsistent snapshots: %llu\n", kWrites,
              static_cast<unsigned long long>(x.LoadDirect()),
              static_cast<unsigned long long>(inconsistent.load()));
  std::printf("commit breakdown:\n");
  for (int i = 0; i < rwle::kCommitPathCount; ++i) {
    std::printf("  %-15s %llu\n", rwle::CommitPathName(static_cast<rwle::CommitPath>(i)),
                static_cast<unsigned long long>(stats.commits[i]));
  }
  std::printf("aborts (retried transparently): %llu\n",
              static_cast<unsigned long long>(stats.TotalAborts()));
  return inconsistent.load() == 0 ? 0 : 1;
}
