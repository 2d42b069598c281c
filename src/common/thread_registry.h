// Process-wide registry mapping worker threads to dense slot indices.
// Per-thread state lives in SlotTable records keyed by slot, made only for
// slots that register (src/htm/thread_state.h, whose ScopedThreadSlot is how
// threads register). Slots are recycled when a thread unregisters, so long
// test runs do not exhaust the table.
#ifndef RWLE_SRC_COMMON_THREAD_REGISTRY_H_
#define RWLE_SRC_COMMON_THREAD_REGISTRY_H_

#include <atomic>
#include <cstdint>

namespace rwle {

inline constexpr std::uint32_t kMaxThreads = 1024;
inline constexpr std::uint32_t kInvalidThreadSlot = UINT32_MAX;

class ThreadRegistry {
 public:
  // The single process-wide registry.
  static ThreadRegistry& Global();

  // Claims a free slot. Aborts if more than kMaxThreads threads register.
  std::uint32_t Register();

  void Unregister(std::uint32_t slot);

  // One past the largest slot ever handed out; scan bound for quiescence and
  // statistics aggregation.
  std::uint32_t HighWatermark() const {
    // Acquire: pairs with the release bump in Register() so a scanner that
    // observes the new watermark also observes the slot's registration.
    return high_watermark_.load(std::memory_order_acquire);
  }

  bool IsInUse(std::uint32_t slot) const {
    // Acquire: pairs with the release ordering of the claiming CAS in
    // Register() -- seeing the slot in use implies seeing everything its
    // thread did before that.
    return (in_use_words_[slot / 64].load(std::memory_order_acquire) >>
            (slot % 64)) &
           1;
  }

 private:
  // Occupancy is a bitmap rather than an array of atomic<bool> so that
  // Register() scans kMaxThreads / 64 words instead of kMaxThreads flags --
  // at 1024 slots that is 16 loads, not 1024, and slot recycling stays a
  // single CAS on the word holding the slot's bit.
  static constexpr std::uint32_t kInUseWords = kMaxThreads / 64;
  static_assert(kMaxThreads % 64 == 0,
                "the occupancy bitmap packs 64 slots per word; a non-multiple "
                "would leave the tail slots unreachable");

  ThreadRegistry() = default;

  std::atomic<std::uint64_t> in_use_words_[kInUseWords] = {};
  std::atomic<std::uint32_t> high_watermark_{0};
};

}  // namespace rwle

#endif  // RWLE_SRC_COMMON_THREAD_REGISTRY_H_
