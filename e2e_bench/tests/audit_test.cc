// Feeds AuditTable (e2e_bench/table.h) a clean table and deliberately
// corrupted ones; every corruption must be reported. Exits nonzero on the
// first expectation that does not hold.
//
//   cmake -S e2e_bench -B <build> && cmake --build <build> && ctest --test-dir <build>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>

#include "e2e_bench/table.h"
#include "src/workloads/hashmap/tx_hashmap.h"

namespace rwle::e2e {
namespace {

// 4 buckets x 2 stable keys: stable keys [0, 8), churn keys [8, 12).
constexpr std::size_t kBuckets = 4;
constexpr std::size_t kPerBucket = 2;
constexpr std::uint64_t kStable = kBuckets * kPerBucket;
constexpr std::uint64_t kChurn = 4;

int failures = 0;

// Builds a populated table, applies `corrupt` (which returns the size the
// benchmark would expect), audits it and compares the verdict.
void Expect(const char* name, bool want_ok,
            const std::function<std::uint64_t(TxHashMap&)>& corrupt) {
  TxHashMap map(kBuckets);
  map.Populate(kPerBucket);
  const std::uint64_t expected_size = corrupt(map);
  const AuditResult result = AuditTable(map, kStable, kChurn, expected_size);
  const bool pass = result.ok == want_ok;
  std::printf("%s %s: audit %s%s%s\n", pass ? "PASS" : "FAIL", name,
              result.ok ? "ok" : "caught", result.ok ? "" : " -- ", result.problem.c_str());
  failures += pass ? 0 : 1;
}

TxHashMap::Node* Insert(TxHashMap& map, std::uint64_t key, std::uint64_t value) {
  TxHashMap::Node* node = TxHashMap::PrepareNode(key, value);
  if (!map.InsertPrepared(node)) {
    TxHashMap::DiscardNode(node);
    return nullptr;
  }
  return node;
}

void Run() {
  Expect("clean table", true, [](TxHashMap&) { return kStable; });
  Expect("counted churn insert", true, [](TxHashMap& map) {
    Insert(map, 9, 27);
    return kStable + 1;
  });
  Expect("counted churn remove", true, [](TxHashMap& map) {
    Insert(map, 10, 30);
    TxHashMap::Node* unlinked = nullptr;
    map.Remove(10, &unlinked);
    TxHashMap::FreeNode(unlinked);
    return kStable;
  });

  Expect("torn stable value", false, [](TxHashMap& map) {
    map.Update(3, 999);
    return kStable;
  });
  Expect("churn key with wrong value", false, [](TxHashMap& map) {
    Insert(map, 9, 28);
    return kStable + 1;
  });
  Expect("lost stable key", false, [](TxHashMap& map) {
    TxHashMap::Node* unlinked = nullptr;
    map.Remove(5, &unlinked);
    TxHashMap::FreeNode(unlinked);
    return kStable - 1;
  });
  Expect("uncounted insert", false, [](TxHashMap& map) {
    Insert(map, 11, 33);
    return kStable;
  });
  Expect("node in another key's bucket", false, [](TxHashMap& map) {
    // Key 10 lives in bucket 2; relabel it as key 11 (bucket 3).
    TxHashMap::Node* node = Insert(map, 10, 30);
    node->key.StoreDirect(11);  // direct: single-threaded test
    node->value.StoreDirect(33);  // direct: as above
    return kStable + 1;
  });
  Expect("duplicate key", false, [](TxHashMap& map) {
    // A second node carrying stable key 2 (value intact) in bucket 2.
    TxHashMap::Node* node = Insert(map, 10, 30);
    node->key.StoreDirect(2);  // direct: single-threaded test
    node->value.StoreDirect(6);  // direct: as above
    return kStable + 1;
  });
}

}  // namespace
}  // namespace rwle::e2e

int main() {
  rwle::e2e::Run();
  if (rwle::e2e::failures > 0) {
    std::printf("%d audit expectation(s) failed\n", rwle::e2e::failures);
    return 1;
  }
  std::printf("all audit expectations held\n");
  return 0;
}
