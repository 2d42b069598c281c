// Synthetic virtual-memory subsystem pressure.
//
// The paper's "low capacity / low contention" scenario (Figure 6) shows HLE
// crippled not by capacity but by page-fault interrupts: sparse access
// patterns over 100,000 buckets keep faulting, and any interrupt aborts an
// in-flight hardware transaction. We model this with a per-thread
// direct-mapped TLB/resident-set: an access whose page misses counts as a
// fault, and the HTM runtime dooms the thread's live transaction with a
// transient kInterrupt abort (reported as an "HTM non-tx" abort, as in the
// paper's breakdowns). Readers outside transactions are unaffected -- the
// asymmetry that gives RW-LE its Figure 6 win.
#ifndef RWLE_SRC_MEMORY_PAGING_MODEL_H_
#define RWLE_SRC_MEMORY_PAGING_MODEL_H_

#include <cstdint>
#include <vector>

#include "src/common/cpu.h"
#include "src/common/slot_table.h"
#include "src/common/thread_registry.h"
#include "src/htm/htm_runtime.h"
#include "src/stats/cost_meter.h"

namespace rwle {

class PagingModel : public InterruptSource {
 public:
  struct Config {
    // Entries in the per-thread direct-mapped TLB model. Smaller = more
    // faults for a given footprint.
    std::uint32_t tlb_entries = 64;
    // Page size = 1 << page_shift bytes (4 KiB default).
    std::uint32_t page_shift = 12;
  };

  explicit PagingModel(const Config& config) : config_(config) {}

  // InterruptSource: returns true if this access page-faults.
  bool OnAccess(std::uint32_t thread_slot, const void* address) override {
    if (thread_slot == kInvalidThreadSlot) {
      return false;
    }
    const std::uint64_t page =
        (reinterpret_cast<std::uintptr_t>(address) >> config_.page_shift) + 1;  // +1: 0 = empty
    ThreadTlb& tlb = tlbs_.Local(thread_slot);  // the caller's own slot
    if (tlb.entries.empty()) [[unlikely]] {
      tlb.entries.assign(config_.tlb_entries, 0);
    }
    std::uint64_t& entry = tlb.entries[page % config_.tlb_entries];
    if (entry == page) {
      return false;
    }
    entry = page;
    ++tlb.faults;
    CostMeter::Global().Charge(CostModel::kPageFault);
    return true;
  }

  // Harvest and reset run between runs, after the workers joined.
  std::uint64_t TotalFaults() const {
    std::uint64_t total = 0;
    tlbs_.ForEachPublished(kMaxThreads,
                           [&](std::uint32_t, const ThreadTlb& tlb) { total += tlb.faults; });
    return total;
  }

  void Reset() {
    tlbs_.ForEachPublished(kMaxThreads, [](std::uint32_t, ThreadTlb& tlb) {
      tlb.entries.assign(tlb.entries.size(), 0);
      tlb.faults = 0;
    });
  }

 private:
  // Made, and its entries sized, by the slot's first access.
  struct alignas(kCacheLineBytes) ThreadTlb {
    std::vector<std::uint64_t> entries;
    std::uint64_t faults = 0;
  };

  Config config_;
  SlotTable<ThreadTlb> tlbs_;
};

}  // namespace rwle

#endif  // RWLE_SRC_MEMORY_PAGING_MODEL_H_
