#include "src/common/slot_table.h"

namespace rwle {

SlotTableBase::~SlotTableBase() {
  for (auto& entry : segments_) {
    // Relaxed: the table is being destroyed, so every thread that used it
    // has finished with it (the owner's destruction happens-after them).
    if (void* segment = entry.load(std::memory_order_relaxed)) {
      free_segment_(segment);
    }
  }
}

void* SlotTableBase::Publish(std::uint32_t index) {
  void* fresh = make_segment_();
  void* expected = nullptr;
  // Seq_cst CAS: the publication is ordered before the owner's first write
  // to its record (an epoch-clock increment, say) in the single total
  // order, so a scanner whose seq_cst load finds the pointer null reads the
  // record as if in its zero state. On failure `expected` is the winner's
  // segment, read with seq_cst (acquire) semantics, so its zeroed records
  // are visible here.
  if (segments_[index].compare_exchange_strong(expected, fresh)) {
    return fresh;
  }
  free_segment_(fresh);
  return expected;
}

}  // namespace rwle
