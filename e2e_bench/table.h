// The benchmark's data set: one TxHashMap behind one or more rwle-opt lock
// stripes, with keys split into a read-only *stable* set and a *churn* set.
//
//   - Stable keys [0, stable) are populated once and never written, so every
//     read of one must find it with value key * 3: a torn or zombie read
//     shows up in the very operation that made it.
//   - Churn keys [stable, stable + churn) start absent; writes insert or
//     remove them. A read of a churn key may miss, but a hit must carry
//     key * 3 as well.
//
// AuditTable checks the quiescent table after a run; tests/audit_test.cc
// feeds it deliberately corrupted tables.
#ifndef RWLE_E2E_BENCH_TABLE_H_
#define RWLE_E2E_BENCH_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/locks/lock_factory.h"
#include "src/workloads/hashmap/tx_hashmap.h"

namespace rwle::e2e {

// Shape of one workload's table and traffic.
struct TableShape {
  std::size_t buckets = 1;
  std::size_t stable_per_bucket = 1;  // populated keys per bucket
  std::uint64_t churn_keys = 1;
  std::uint32_t stripes = 1;  // rwle-opt locks; bucket b is guarded by b % stripes
  double zipf_theta = 0.0;    // 0 = uniform keys
};

// What one operation did, for the caller's counters.
struct OpOutcome {
  bool ok = true;      // the operation's output check passed
  int size_delta = 0;  // +1 successful insert, -1 successful remove
};

class Table {
 public:
  // Takes the stripes' locks (see MakeLocks) and allocates the empty map;
  // Populate() fills it. The caller times the phases separately.
  Table(const TableShape& shape, std::vector<std::unique_ptr<ElidableLock>> locks)
      : shape_(shape),
        locks_(std::move(locks)),
        map_(shape.buckets),
        stable_keys_(shape.buckets * shape.stable_per_bucket) {
    if (shape.zipf_theta > 0.0) {
      read_zipf_ = std::make_unique<ZipfGenerator>(stable_keys_ + shape.churn_keys,
                                                   shape.zipf_theta);
      churn_zipf_ = std::make_unique<ZipfGenerator>(shape.churn_keys, shape.zipf_theta);
    }
  }

  // Single-threaded; call once before any operation.
  void Populate() { map_.Populate(shape_.stable_per_bucket); }

  static std::vector<std::unique_ptr<ElidableLock>> MakeLocks(std::uint32_t stripes) {
    std::vector<std::unique_ptr<ElidableLock>> locks;
    locks.reserve(stripes);
    for (std::uint32_t i = 0; i < stripes; ++i) {
      locks.push_back(MakeLock("rwle-opt"));
    }
    return locks;
  }

  std::uint64_t stable_keys() const { return stable_keys_; }
  std::uint64_t churn_keys() const { return shape_.churn_keys; }
  const TxHashMap& map() const { return map_; }
  const std::vector<std::unique_ptr<ElidableLock>>& locks() const { return locks_; }

  // One checked operation. `wrap` runs the lock call (it may time or trace
  // it) and receives the lock, the op kind and the critical-section body.
  // Safe to call concurrently from registered threads.
  template <typename Wrap>
  OpOutcome Op(Rng& rng, bool is_write, Wrap&& wrap) {
    OpOutcome outcome;
    if (!is_write) {
      const std::uint64_t key = ReadKey(rng);
      std::uint64_t value = 0;
      bool found = false;
      wrap(LockFor(key), false, [&] { found = map_.Lookup(key, &value); });
      outcome.ok = key < stable_keys_ ? (found && value == key * 3)
                                      : (!found || value == key * 3);
      return outcome;
    }
    const std::uint64_t key = ChurnKey(rng);
    if (rng.NextBool(0.5)) {
      TxHashMap::Node* node = TxHashMap::PrepareNode(key, key * 3);
      bool inserted = false;
      wrap(LockFor(key), true, [&] { inserted = map_.InsertPrepared(node); });
      if (inserted) {
        outcome.size_delta = 1;
      } else {
        TxHashMap::DiscardNode(node);
      }
    } else {
      TxHashMap::Node* unlinked = nullptr;
      wrap(LockFor(key), true, [&] { map_.Remove(key, &unlinked); });
      if (unlinked != nullptr) {
        // Direct: the committed Write unlinked the node and quiescence
        // drained its readers, so this thread owns it.
        outcome.ok = unlinked->key.LoadDirect() == key &&
                     unlinked->value.LoadDirect() == key * 3;  // direct: as above
        outcome.size_delta = -1;
        TxHashMap::FreeNode(unlinked);
      }
    }
    return outcome;
  }

 private:
  ElidableLock& LockFor(std::uint64_t key) {
    return *locks_[(key % shape_.buckets) % shape_.stripes];
  }

  std::uint64_t ReadKey(Rng& rng) const {
    return read_zipf_ ? read_zipf_->Next(rng)
                      : rng.NextBelow(stable_keys_ + shape_.churn_keys);
  }

  std::uint64_t ChurnKey(Rng& rng) const {
    return stable_keys_ +
           (churn_zipf_ ? churn_zipf_->Next(rng) : rng.NextBelow(shape_.churn_keys));
  }

  TableShape shape_;
  std::vector<std::unique_ptr<ElidableLock>> locks_;
  TxHashMap map_;
  std::uint64_t stable_keys_;
  std::unique_ptr<ZipfGenerator> read_zipf_;
  std::unique_ptr<ZipfGenerator> churn_zipf_;
};

struct AuditResult {
  bool ok = true;
  std::string problem;  // first failed check, empty when ok
};

// Checks a quiescent table against its key contract:
//   - every stable key is present with value key * 3;
//   - every present churn key has value key * 3;
//   - every node is reachable by a lookup of its own key (so it sits in its
//     own bucket) and no key appears twice: the node count and key sum over
//     all buckets equal those of the keys the lookups found;
//   - the size equals `expected_size` (populated + inserts - removes).
// The lookups are split over `threads` unregistered threads, i.e. plain
// non-transactional loads; the table must not change meanwhile.
inline AuditResult AuditTable(const TxHashMap& map, std::uint64_t stable_keys,
                              std::uint64_t churn_keys, std::uint64_t expected_size,
                              std::uint32_t threads = 1) {
  struct Part {
    std::uint64_t found_count = 0;
    std::uint64_t found_key_sum = 0;
    std::string problem;
  };
  const std::uint64_t keys = stable_keys + churn_keys;
  std::vector<Part> parts(threads);
  auto scan = [&](std::uint32_t part) {
    Part& mine = parts[part];
    for (std::uint64_t key = part; key < keys; key += threads) {
      std::uint64_t value = 0;
      if (!map.Lookup(key, &value)) {
        if (key < stable_keys && mine.problem.empty()) {
          mine.problem = "stable key " + std::to_string(key) + " missing";
        }
        continue;
      }
      ++mine.found_count;
      mine.found_key_sum += key;
      if (value != key * 3 && mine.problem.empty()) {
        mine.problem = "key " + std::to_string(key) + " has value " + std::to_string(value);
      }
    }
  };
  std::vector<std::thread> pool;
  for (std::uint32_t part = 1; part < threads; ++part) {
    pool.emplace_back(scan, part);
  }
  scan(0);
  for (auto& thread : pool) {
    thread.join();
  }

  AuditResult result;
  std::uint64_t found_count = 0;
  std::uint64_t found_key_sum = 0;
  for (const Part& part : parts) {
    found_count += part.found_count;
    found_key_sum += part.found_key_sum;
    if (result.ok && !part.problem.empty()) {
      result = {false, part.problem};
    }
  }
  const std::uint64_t nodes = map.SizeDirect();
  if (result.ok && (nodes != found_count || map.KeySumDirect() != found_key_sum)) {
    result = {false, std::to_string(nodes) + " nodes but " + std::to_string(found_count) +
                         " reachable keys: misplaced or duplicate nodes"};
  }
  if (result.ok && nodes != expected_size) {
    result = {false, "size " + std::to_string(nodes) + " != expected " +
                         std::to_string(expected_size)};
  }
  return result;
}

}  // namespace rwle::e2e

#endif  // RWLE_E2E_BENCH_TABLE_H_
