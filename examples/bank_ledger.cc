// Bank ledger: transfers (write critical sections) against auditors that
// sum every account (large read critical sections).
//
// This is the snapshot-consistency showcase: the audit total must equal the
// initial total on *every* read, even while transfers race with it. It also
// exercises the paper's capacity asymmetry -- the audit's read footprint
// (one cache line per account) vastly exceeds HTM capacity, so HLE would
// serialize every audit, while RW-LE audits run uninstrumented and in
// parallel with speculating transfer writers.
//
// Usage: ./examples/bank_ledger [--accounts N] [--transfers N] [--auditors N]
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/htm/thread_state.h"
#include "src/memory/tx_var.h"
#include "src/rwle/rwle_lock.h"

namespace {

struct alignas(rwle::kCacheLineBytes) Account {
  rwle::TxVar<std::int64_t> balance;
};

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t num_accounts = 512;
  std::uint64_t num_transfers = 5000;
  std::uint64_t num_auditors = 2;

  rwle::FlagSet flags("Bank ledger: transfers vs auditors under RW-LE");
  flags.AddUint("accounts", &num_accounts, "number of accounts");
  flags.AddUint("transfers", &num_transfers, "transfers per writer");
  flags.AddUint("auditors", &num_auditors, "concurrent auditor threads");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }

  rwle::RwLeLock lock;
  std::vector<Account> accounts(num_accounts);
  constexpr std::int64_t kInitialBalance = 1000;
  for (auto& account : accounts) {
    account.balance.StoreDirect(kInitialBalance);
  }
  const std::int64_t expected_total =
      static_cast<std::int64_t>(num_accounts) * kInitialBalance;

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> bad_audits{0};
  std::atomic<std::uint64_t> audits{0};

  std::thread teller([&] {
    rwle::ScopedThreadSlot slot;
    rwle::Rng rng(2024);
    for (std::uint64_t i = 0; i < num_transfers; ++i) {
      const std::uint64_t from = rng.NextBelow(num_accounts);
      const std::uint64_t to = rng.NextBelow(num_accounts);
      const auto amount = static_cast<std::int64_t>(rng.NextInRange(1, 50));
      lock.Write([&] {
        accounts[from].balance.Store(accounts[from].balance.Load() - amount);
        accounts[to].balance.Store(accounts[to].balance.Load() + amount);
      });
      if (i % 8 == 0) {
        std::this_thread::yield();  // interleave with auditors on 1-CPU hosts
      }
    }
    done.store(true);
  });

  std::vector<std::thread> auditors;
  for (std::uint64_t a = 0; a < num_auditors; ++a) {
    auditors.emplace_back([&] {
      rwle::ScopedThreadSlot slot;
      while (!done.load()) {
        std::int64_t total = 0;
        lock.Read([&] {
          total = 0;  // re-init: the closure may observe multiple snapshots
          for (auto& account : accounts) {
            total += account.balance.Load();
          }
        });
        audits.fetch_add(1);
        if (total != expected_total) {
          bad_audits.fetch_add(1);
        }
      }
    });
  }

  teller.join();
  for (auto& auditor : auditors) {
    auditor.join();
  }

  const rwle::ThreadStats stats = lock.stats().Aggregate();
  std::printf("transfers: %llu, audits: %llu, inconsistent audits: %llu\n",
              static_cast<unsigned long long>(num_transfers),
              static_cast<unsigned long long>(audits.load()),
              static_cast<unsigned long long>(bad_audits.load()));
  std::printf("writer paths: HTM %llu, ROT %llu, serial %llu | aborts %llu\n",
              static_cast<unsigned long long>(
                  stats.commits[static_cast<int>(rwle::CommitPath::kHtm)]),
              static_cast<unsigned long long>(
                  stats.commits[static_cast<int>(rwle::CommitPath::kRot)]),
              static_cast<unsigned long long>(
                  stats.commits[static_cast<int>(rwle::CommitPath::kSerial)]),
              static_cast<unsigned long long>(stats.TotalAborts()));
  return bad_audits.load() == 0 ? 0 : 1;
}
