// Per-thread-slot records that grow with the threads that use them.
//
// Locks keep state per registry slot (RW-LE's epoch clocks, nesting depths,
// statistics shards, latency histograms). A flat kMaxThreads array of such
// records costs every lock instance its full size up front, although a lock
// is typically touched by a handful of threads. A SlotTable instead keeps
// records in zero-initialized segments of kSlotSegmentSize slots, allocated
// the first time one of the segment's slots asks for its record and reached
// through a fixed array of kSlotSegmentCount segment pointers: a built but
// unused table is that pointer array, and each segment costs
// kSlotSegmentSize records.
//
// Two access paths:
//   - Owner path, Local(slot): the calling thread's own record. The first
//     call for an unpublished segment allocates it and publishes it with a
//     seq_cst CAS (losing the race to another slot owner of the same segment
//     frees the spare and adopts the winner's). Afterwards it is one
//     acquire load of the segment pointer plus index arithmetic.
//   - Scanner path, Find(slot) / ForEachPublished(end, fn): other threads
//     (quiescence scans, harvest) read segment pointers with seq_cst loads;
//     an unpublished segment means every record in it is still in its
//     zero state.
//
// The seq_cst publish is what lets a scanner treat "no segment" as "record
// in its zero state" in ordering arguments too: an owner publishes before it
// first writes its record, so a scan whose load finds the pointer null is
// ordered before that first write in the single total order -- for RW-LE's
// epoch clocks, exactly as if it had read an even clock (DESIGN.md §12).
//
// Segments live until the table is destroyed; records are never moved, so a
// reference returned by Local() stays valid for the table's lifetime.
// SlotColumn is a typed view of one member of every record, used by the
// registries that can either own their table or live inside a lock's
// records (StatsRegistry, EpochClocks).
#ifndef RWLE_SRC_COMMON_SLOT_TABLE_H_
#define RWLE_SRC_COMMON_SLOT_TABLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "src/common/thread_registry.h"

namespace rwle {

inline constexpr std::uint32_t kSlotSegmentSize = 16;
inline constexpr std::uint32_t kSlotSegmentCount = kMaxThreads / kSlotSegmentSize;
static_assert(kMaxThreads % kSlotSegmentSize == 0,
              "segments must tile the slot space exactly");

// The untyped part of a SlotTable: the segment directory and the record
// stride. SlotTable<Record> supplies how a segment is built and freed.
class SlotTableBase {
 public:
  SlotTableBase(const SlotTableBase&) = delete;
  SlotTableBase& operator=(const SlotTableBase&) = delete;

  // Owner path: the bytes of `slot`'s record, publishing its segment on
  // first use.
  std::byte* LocalBytes(std::uint32_t slot) {
    // Acquire: pairs with the publishing CAS in Publish() -- possibly run by
    // another slot owner of this segment -- so the zeroed records are seen
    // initialized.
    void* segment = segments_[slot / kSlotSegmentSize].load(std::memory_order_acquire);
    if (segment == nullptr) [[unlikely]] {
      segment = Publish(slot / kSlotSegmentSize);
    }
    return RecordIn(segment, slot);
  }

  // Scanner path: the bytes of `slot`'s record, or null while its segment
  // is unpublished (the record is then in its zero state).
  std::byte* FindBytes(std::uint32_t slot) const {
    void* segment = segments_[slot / kSlotSegmentSize].load();
    return segment == nullptr ? nullptr : RecordIn(segment, slot);
  }

  // Calls fn(slot, record_bytes) for every record of a published segment
  // with slot < `end`, in slot order. Typical `end`: the registry high
  // watermark, past which no thread has ever run.
  template <typename Fn>
  void ForEachPublishedBytes(std::uint32_t end, Fn&& fn) const {
    const std::uint32_t segments = (end + kSlotSegmentSize - 1) / kSlotSegmentSize;
    for (std::uint32_t index = 0; index < segments; ++index) {
      void* segment = segments_[index].load();
      if (segment == nullptr) {
        continue;
      }
      const std::uint32_t first = index * kSlotSegmentSize;
      const std::uint32_t last =
          end < first + kSlotSegmentSize ? end : first + kSlotSegmentSize;
      for (std::uint32_t slot = first; slot < last; ++slot) {
        fn(slot, RecordIn(segment, slot));
      }
    }
  }

 protected:
  using MakeSegmentFn = void* (*)();
  using FreeSegmentFn = void (*)(void*);

  SlotTableBase(std::size_t record_bytes, MakeSegmentFn make, FreeSegmentFn free)
      : record_bytes_(record_bytes), make_segment_(make), free_segment_(free) {}
  ~SlotTableBase();

  // Allocates segment `index` and publishes it, or adopts the segment a
  // racing owner published first. Returns the published segment.
  void* Publish(std::uint32_t index);

 private:
  std::byte* RecordIn(void* segment, std::uint32_t slot) const {
    return static_cast<std::byte*>(segment) + (slot % kSlotSegmentSize) * record_bytes_;
  }

  std::atomic<void*> segments_[kSlotSegmentCount] = {};
  std::size_t record_bytes_;
  MakeSegmentFn make_segment_;
  FreeSegmentFn free_segment_;
};

// A typed view of one member (of type Field) of every record of a table.
// Cheap to copy; does not own the table.
template <typename Field>
class SlotColumn {
 public:
  SlotColumn(SlotTableBase* table, std::size_t offset) : table_(table), offset_(offset) {}

  // Owner path (see SlotTableBase::LocalBytes).
  Field& Local(std::uint32_t slot) const { return *At(table_->LocalBytes(slot)); }

  // Scanner path: null while `slot`'s segment is unpublished.
  Field* Find(std::uint32_t slot) const {
    std::byte* record = table_->FindBytes(slot);
    return record == nullptr ? nullptr : At(record);
  }

  // fn(slot, Field&) for every published record below `end`.
  template <typename Fn>
  void ForEachPublished(std::uint32_t end, Fn&& fn) const {
    table_->ForEachPublishedBytes(
        end, [&](std::uint32_t slot, std::byte* record) { fn(slot, *At(record)); });
  }

 private:
  Field* At(std::byte* record) const { return reinterpret_cast<Field*>(record + offset_); }

  SlotTableBase* table_;
  std::size_t offset_;
};

// Records must be usable in their value-initialized (all-zero) state: a
// scanner treats an unpublished segment as a segment of such records.
template <typename Record>
class SlotTable : public SlotTableBase {
 public:
  SlotTable() : SlotTableBase(sizeof(Record), &MakeSegment, &FreeSegment) {}

  Record& Local(std::uint32_t slot) { return *AsRecord(LocalBytes(slot)); }
  Record* Find(std::uint32_t slot) const { return AsRecord(FindBytes(slot)); }

  template <typename Fn>
  void ForEachPublished(std::uint32_t end, Fn&& fn) const {
    ForEachPublishedBytes(
        end, [&](std::uint32_t slot, std::byte* record) { fn(slot, *AsRecord(record)); });
  }

  // A view of the member at byte `offset` (pass offsetof(Record, member)).
  template <typename Field>
  SlotColumn<Field> Column(std::size_t offset) {
    static_assert(std::is_standard_layout_v<Record>,
                  "column offsets come from offsetof, which needs standard layout");
    return SlotColumn<Field>(this, offset);
  }

 private:
  struct Segment {
    Record records[kSlotSegmentSize];
  };

  static Record* AsRecord(std::byte* bytes) { return reinterpret_cast<Record*>(bytes); }
  static void* MakeSegment() { return new Segment{}; }
  static void FreeSegment(void* segment) { delete static_cast<Segment*>(segment); }
};

}  // namespace rwle

#endif  // RWLE_SRC_COMMON_SLOT_TABLE_H_
