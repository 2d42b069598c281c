// TxVar<T>: a shared memory cell routed through the simulated HTM fabric.
//
// Every load/store of a TxVar goes through HtmRuntime::CellLoad/CellStore,
// which plays the role of the cache-coherence protocol: inside a transaction
// the access is tracked/buffered; outside, it is a plain access that still
// dooms conflicting transactions (this is what lets RW-LE's uninstrumented
// readers abort a suspended writer, paper Figure 2).
//
// T must be trivially copyable and at most 8 bytes -- the fabric models
// memory as 64-bit words, like HTM hardware sees memory as words in lines.
#ifndef RWLE_SRC_MEMORY_TX_VAR_H_
#define RWLE_SRC_MEMORY_TX_VAR_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "src/htm/htm_runtime.h"

namespace rwle {

template <typename T>
class TxVar {
  static_assert(std::is_trivially_copyable_v<T>, "TxVar requires trivially copyable T");
  static_assert(sizeof(T) <= sizeof(std::uint64_t), "TxVar payload must fit in 8 bytes");

 public:
  TxVar() : bits_(0) { NotifyInit(0); }
  explicit TxVar(T value) : bits_(Encode(value)) { NotifyInit(Encode(value)); }

  TxVar(const TxVar&) = delete;
  TxVar& operator=(const TxVar&) = delete;

  // Coherent load/store through the simulated fabric. Use these for every
  // access that can race with a critical section.
  T Load() const { return Decode(HtmRuntime::Global().CellLoad(&bits_)); }
  void Store(T value) { HtmRuntime::Global().CellStore(&bits_, Encode(value)); }

  // Gives a recycled cell its next occupant: construction, but as an atomic
  // store. Type-stable memory (node_slabs.h) needs it because a doomed
  // transaction may still load the cell while it is recycled.
  void Reinit(T value) {
    // relaxed: the new owner publishes the cell only through a later
    // committed fabric store; a racing doomed reader discards what it reads.
    bits_.store(Encode(value), std::memory_order_relaxed);
    NotifyInit(Encode(value));
  }

  // Direct access bypassing the fabric. Only valid while no transaction can
  // touch this cell (single-threaded setup and post-run verification). In
  // analysis builds these are observed so txsan can flag misuse.
#ifdef RWLE_ANALYSIS
  T LoadDirect() const { return Decode(HtmRuntime::Global().DirectCellLoad(&bits_)); }
  void StoreDirect(T value) { HtmRuntime::Global().DirectCellStore(&bits_, Encode(value)); }
#else
  // Relaxed: by contract no transaction can observe these accesses (the
  // caller guarantees single-threaded setup/verification), so there is no
  // concurrent access to order against.
  T LoadDirect() const { return Decode(bits_.load(std::memory_order_relaxed)); }
  void StoreDirect(T value) { bits_.store(Encode(value), std::memory_order_relaxed); }  // relaxed: as above
#endif

 private:
  // Construction and Reinit reset any analysis shadow state left by a
  // previous occupant of this address (arenas placement-new TxVars over
  // reused memory). No-op outside analysis builds.
  void NotifyInit(std::uint64_t bits) {
#ifdef RWLE_ANALYSIS
    HtmRuntime::Global().CellInit(&bits_, bits);
#else
    (void)bits;
#endif
  }

  static std::uint64_t Encode(T value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(T));
    return bits;
  }

  static T Decode(std::uint64_t bits) {
    T value;
    std::memcpy(&value, &bits, sizeof(T));
    return value;
  }

  mutable std::atomic<std::uint64_t> bits_;
};

}  // namespace rwle

#endif  // RWLE_SRC_MEMORY_TX_VAR_H_
