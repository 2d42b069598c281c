// The simulated coherence directory: a fixed-size, hash-indexed table of
// cache-line slots recording which transaction owns a line for writing and
// which transactions have it in their read set. Memory is word-major: a hot
// plane of {writer, reader word 0} records plus one plane per further reader
// word, all lazily backed, so the resident table follows the lines and the
// threads a run actually uses (DESIGN.md §12).
//
// Distinct lines may alias to the same slot; that manifests as a false
// conflict, exactly like way-aliasing in a real L2 TM directory.
#ifndef RWLE_SRC_HTM_CONFLICT_TABLE_H_
#define RWLE_SRC_HTM_CONFLICT_TABLE_H_

#include <atomic>
#include <cstdint>

#include "src/common/cpu.h"
#include "src/common/thread_registry.h"

namespace rwle {

// Owner tokens identify (thread slot, transaction epoch) pairs so that a
// stale owner field left by a doomed transaction can never be confused with
// that thread's next transaction. Token 0 means "unowned".
//
// Packing: [ epoch : 52 | thread_slot + 1 : 12 ]. The +1 bias keeps token 0
// reserved for "unowned" while slot 0 stays representable. The 12-bit slot
// field caps the simulator at 4094 concurrently registered threads; the
// static_assert below ties that ceiling to kMaxThreads so widening one
// without the other fails to compile rather than silently aliasing slots.
// Epochs get the remaining 52 bits -- at one transaction per nanosecond
// that wraps after ~52 days, far beyond any run, so wrap-around ABA on the
// epoch field is not defended against.
using OwnerToken = std::uint64_t;

inline constexpr std::uint32_t kOwnerTokenSlotBits = 12;
inline constexpr OwnerToken kOwnerTokenSlotMask =
    (OwnerToken{1} << kOwnerTokenSlotBits) - 1;

static_assert(kMaxThreads <= kOwnerTokenSlotMask - 1,
              "OwnerToken packs thread_slot + 1 into its low "
              "kOwnerTokenSlotBits bits; widen the slot field (and "
              "OwnerTokenSlot/OwnerTokenEpoch) before raising kMaxThreads "
              "past what it can hold");

constexpr OwnerToken MakeOwnerToken(std::uint32_t thread_slot, std::uint64_t epoch) {
  return (epoch << kOwnerTokenSlotBits) | (static_cast<OwnerToken>(thread_slot) + 1);
}

// Inverse of MakeOwnerToken. Calling either on token 0 ("unowned") is
// meaningless; callers test for 0 first.
constexpr std::uint32_t OwnerTokenSlot(OwnerToken token) {
  return static_cast<std::uint32_t>(token & kOwnerTokenSlotMask) - 1;
}

constexpr std::uint64_t OwnerTokenEpoch(OwnerToken token) {
  return token >> kOwnerTokenSlotBits;
}

class ConflictTable {
 public:
  static constexpr std::uint32_t kSlotCountLog2 = 16;
  static constexpr std::uint32_t kSlotCount = 1u << kSlotCountLog2;
  static constexpr std::uint32_t kReaderWords = kMaxThreads / 64;
  static_assert(kMaxThreads % 64 == 0,
                "kReaderWords packs 64 reader bits per word; a non-multiple "
                "kMaxThreads would silently round reader capacity down");

  // The hot record of a line slot: the writer field and reader word 0
  // (thread slots 0..63). Sixteen bytes, aligned so a record never straddles
  // a host cache line: while at most 64 threads run, every access touches
  // one host line. Reader words 1..kReaderWords-1 live in the word-major
  // overflow planes (see ReaderWord).
  class alignas(16) LineSlot {
   public:
    std::atomic_ref<OwnerToken> writer() { return std::atomic_ref<OwnerToken>(writer_); }

   private:
    friend class ConflictTable;
    OwnerToken writer_;
    std::uint64_t reader_word0_;
  };
  static_assert(sizeof(LineSlot) == 16, "a hot record must fit one host line");

  // Maps zero-filled storage whose pages stay unbacked until written: a run
  // pays for the hot records of the lines it touches and for an overflow
  // plane only once a thread slot >= 64 sets a reader bit.
  ConflictTable();
  ~ConflictTable();
  ConflictTable(const ConflictTable&) = delete;
  ConflictTable& operator=(const ConflictTable&) = delete;

  // Maps a shared cell's address to its line slot. Cells within one
  // 128-byte line share a slot (false sharing is modeled, not hidden).
  //
  // Hot-path contract: hash once per access. Fast paths call IndexFor once,
  // keep the index (SlotAt is a plain array load), and log it in the
  // transaction's set logs, so commit/abort release the footprint without
  // ever re-hashing. SlotFor is the one-shot form for paths that never need
  // the index again.
  LineSlot& SlotFor(const void* address) { return slots_[IndexFor(address)]; }

  std::uint32_t IndexFor(const void* address) const {
    const auto line = reinterpret_cast<std::uintptr_t>(address) >> kCacheLineShift;
    return static_cast<std::uint32_t>(Mix(line) & (kSlotCount - 1));
  }

  LineSlot& SlotAt(std::uint32_t index) { return slots_[index]; }

  // Reader word `word` of slot `index`: the bits of thread slots
  // word * 64 .. word * 64 + 63. Word 0 sits in the hot record; plane w
  // holds word w of every slot, so the planes a run's threads never reach
  // are never resident.
  std::atomic_ref<std::uint64_t> ReaderWord(std::uint32_t index, std::uint32_t word) {
    return std::atomic_ref<std::uint64_t>(
        word == 0 ? slots_[index].reader_word0_ : overflow_[(word - 1) * kSlotCount + index]);
  }

  void SetReaderBit(std::uint32_t index, std::uint32_t thread_slot) {
    ReaderWord(index, thread_slot / 64).fetch_or(std::uint64_t{1} << (thread_slot % 64));
  }

  void ClearReaderBit(std::uint32_t index, std::uint32_t thread_slot) {
    ReaderWord(index, thread_slot / 64).fetch_and(~(std::uint64_t{1} << (thread_slot % 64)));
  }

  bool TestReaderBit(std::uint32_t index, std::uint32_t thread_slot) {
    return (ReaderWord(index, thread_slot / 64).load() >> (thread_slot % 64)) & 1;
  }

 private:
  static std::uint64_t Mix(std::uint64_t x) {
    // Fibonacci-style mixer; cheap and spreads sequential lines.
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    return x;
  }

  // One mapping: kSlotCount hot records, then kReaderWords - 1 planes of
  // kSlotCount words each.
  LineSlot* slots_;
  std::uint64_t* overflow_;
};

}  // namespace rwle

#endif  // RWLE_SRC_HTM_CONFLICT_TABLE_H_
