// Type-stable slab memory for TxHashMap nodes.
//
// Why type-stable: a doomed speculative transaction -- an HLE reader, or an
// RW-LE writer on the HTM or ROT path -- can still load a node after the
// Write that unlinked it committed and the node was handed back. RW-LE's
// quiescence waits only for uninstrumented readers, not for those. On
// POWER8 the hardware sandboxes such a zombie load; in the host it must
// still land on a live object. So every block is constructed once, when its
// slab is added, and is never destroyed: a returned block is only ever
// handed out again as the same type, and slabs go back to the OS only when
// the process exits. The new owner re-initializes the object with atomic
// stores (TxVar::Reinit), so a zombie that loads it reads a valid value
// without a data race and aborts at its next fabric access.
//
// Layout. Each rule was measured on the end-to-end benchmark (DESIGN.md §6):
//   - One block per object, sizeof(Block) bytes at alignof(Block): a node
//     keeps its 128-B modeled line to itself. Packing two per line adds
//     false conflicts on a contended chain.
//   - Slabs of 256 KiB, aligned to 256 KiB: 64 pages, the reach of the
//     PagingModel's default 64-entry TLB. A block finds its slab by masking
//     its address; the slab's header (free bitmap) sits in its first blocks.
//   - Address-ordered first fit: the lowest free block of the lowest slab
//     with one. A table populated after churn is laid out contiguously, as
//     on a fresh pool. A LIFO free list hands back the last-freed blocks
//     first, and these scatter each chain over more pages (more modeled TLB
//     faults per lookup).
// One mutex guards the pool. Allocation and release happen outside critical
// sections, so the mutex is never held across a fabric access.
#ifndef RWLE_SRC_WORKLOADS_HASHMAP_NODE_SLABS_H_
#define RWLE_SRC_WORKLOADS_HASHMAP_NODE_SLABS_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <new>
#include <vector>

#include "src/common/check.h"

namespace rwle {

template <typename Block>
class NodeSlabs {
 public:
  static constexpr std::size_t kSlabBytes = std::size_t{256} << 10;
  static constexpr std::size_t kBlockBytes = sizeof(Block);
  static constexpr std::size_t kBlocksPerSlab = kSlabBytes / kBlockBytes;

  // The process-wide pool. Never destroyed, so a map torn down during static
  // destruction can still hand its nodes back, and every slab stays
  // reachable from here until exit (no leak report).
  static NodeSlabs& Global() {
    static NodeSlabs* const pool = new NodeSlabs;
    return *pool;
  }

  // Returns a constructed Block, fresh or recycled; the caller re-initializes
  // it with atomic stores.
  Block* Allocate() {
    std::lock_guard<std::mutex> guard(mutex_);
    while (first_with_space_ < slabs_.size() && slabs_[first_with_space_]->free_count == 0) {
      ++first_with_space_;
    }
    if (first_with_space_ == slabs_.size()) {
      AddSlab();
    }
    Slab& slab = *slabs_[first_with_space_];
    for (std::size_t word = 0; word < kWords; ++word) {
      if (slab.free_bits[word] != 0) {
        const std::size_t bit = std::countr_zero(slab.free_bits[word]);
        slab.free_bits[word] &= slab.free_bits[word] - 1;
        --slab.free_count;
        return reinterpret_cast<Block*>(reinterpret_cast<char*>(&slab) +
                                        (word * 64 + bit) * kBlockBytes);
      }
    }
    RWLE_CHECK(false && "slab free count disagrees with its bitmap");
    return nullptr;
  }

  void Free(Block* block) {
    const auto address = reinterpret_cast<std::uintptr_t>(block);
    Slab& slab = *reinterpret_cast<Slab*>(address & ~(std::uintptr_t{kSlabBytes} - 1));
    const std::size_t offset = address - reinterpret_cast<std::uintptr_t>(&slab);
    const std::size_t index = offset / kBlockBytes;
    const std::uint64_t mask = std::uint64_t{1} << (index % 64);
    std::lock_guard<std::mutex> guard(mutex_);
    RWLE_CHECK(offset % kBlockBytes == 0 && index >= kHeaderBlocks &&
               (slab.free_bits[index / 64] & mask) == 0);  // a block this pool handed out
    slab.free_bits[index / 64] |= mask;
    ++slab.free_count;
    first_with_space_ = std::min(first_with_space_, slab.index);
  }

 private:
  static constexpr std::size_t kWords = (kBlocksPerSlab + 63) / 64;

  // Lives in the slab's first kHeaderBlocks blocks, which hold no Block and
  // are never free.
  struct Slab {
    std::uint64_t free_bits[kWords];  // bit i set = block i free
    std::size_t free_count;
    std::size_t index;  // position in slabs_
  };
  static constexpr std::size_t kHeaderBlocks = (sizeof(Slab) + kBlockBytes - 1) / kBlockBytes;
  static_assert(kHeaderBlocks < kBlocksPerSlab, "block too large for a slab");

  NodeSlabs() = default;

  // Called with mutex_ held when no slab has a free block.
  void AddSlab() {
    void* memory = ::operator new(kSlabBytes, std::align_val_t{kSlabBytes});
    Slab* slab = new (memory) Slab{};
    for (std::size_t block = kHeaderBlocks; block < kBlocksPerSlab; ++block) {
      new (static_cast<char*>(memory) + block * kBlockBytes) Block();
      slab->free_bits[block / 64] |= std::uint64_t{1} << (block % 64);
    }
    slab->free_count = kBlocksPerSlab - kHeaderBlocks;
    // Keep slabs_ in address order, so first fit is address-ordered.
    const auto at = std::upper_bound(slabs_.begin(), slabs_.end(), slab, std::less<>());
    first_with_space_ = static_cast<std::size_t>(at - slabs_.begin());
    slabs_.insert(at, slab);
    for (std::size_t i = first_with_space_; i < slabs_.size(); ++i) {
      slabs_[i]->index = i;
    }
  }

  std::mutex mutex_;
  std::vector<Slab*> slabs_;  // address order; never shrinks
  // No slab below this index has a free block.
  std::size_t first_with_space_ = 0;
};

}  // namespace rwle

#endif  // RWLE_SRC_WORKLOADS_HASHMAP_NODE_SLABS_H_
