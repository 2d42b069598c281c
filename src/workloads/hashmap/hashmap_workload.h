// Binds a TxHashMap and a lock into the §4.1 sensitivity workload: read ops
// are lookups, write ops alternate insert/remove (keeping the size roughly
// stable), keys uniform over the initially populated range.
#ifndef RWLE_SRC_WORKLOADS_HASHMAP_HASHMAP_WORKLOAD_H_
#define RWLE_SRC_WORKLOADS_HASHMAP_HASHMAP_WORKLOAD_H_

#include <cstdint>

#include "src/common/rng.h"
#include "src/locks/elidable_lock.h"
#include "src/workloads/hashmap/tx_hashmap.h"

namespace rwle {

// The four scenarios of Figures 3-6. `buckets` controls contention (1 =
// every op collides; many = sparse), `per_bucket` controls the read-set
// footprint relative to HTM capacity (200 lines >> 64-line capacity; 50
// lines fits). Bucket counts are scaled down from the paper's 100,000 to
// keep single-host memory reasonable; the contention regime is what matters.
struct HashMapScenario {
  std::size_t buckets;
  std::size_t per_bucket;

  static HashMapScenario HighCapacityHighContention() { return {1, 200}; }
  static HashMapScenario HighCapacityLowContention(std::size_t l = 1024) { return {l, 200}; }
  static HashMapScenario LowCapacityHighContention() { return {1, 50}; }
  static HashMapScenario LowCapacityLowContention(std::size_t l = 4096) { return {l, 50}; }
};

class HashMapWorkload {
 public:
  explicit HashMapWorkload(const HashMapScenario& scenario)
      : map_(scenario.buckets),
        key_range_(scenario.buckets * scenario.per_bucket) {
    map_.Populate(scenario.per_bucket);
  }

  // One benchmark operation. Safe to call concurrently from registered
  // threads; `is_write` selects the lock mode as in the paper.
  void Op(ElidableLock& lock, Rng& rng, bool is_write) {
    const std::uint64_t key = rng.NextBelow(key_range_);
    if (!is_write) {
      std::uint64_t value = 0;
      lock.Read([&] { map_.Lookup(key, &value); });
      return;
    }
    if (rng.NextBool(0.5)) {
      TxHashMap::Node* node = TxHashMap::PrepareNode(key, key * 3);
      bool inserted = false;
      lock.Write([&] { inserted = map_.InsertPrepared(node); });
      if (!inserted) {
        TxHashMap::DiscardNode(node);
      }
    } else {
      TxHashMap::Node* unlinked = nullptr;
      lock.Write([&] { map_.Remove(key, &unlinked); });
      if (unlinked != nullptr) {
        // A doomed speculative reader may still load the node; its memory is
        // type-stable (node_slabs.h), so returning it here is safe.
        TxHashMap::FreeNode(unlinked);
      }
    }
  }

  TxHashMap& map() { return map_; }

 private:
  TxHashMap map_;
  std::uint64_t key_range_;
};

}  // namespace rwle

#endif  // RWLE_SRC_WORKLOADS_HASHMAP_HASHMAP_WORKLOAD_H_
