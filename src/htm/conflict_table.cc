#include "src/htm/conflict_table.h"

#include <cstddef>
#include <cstdlib>

#include "src/common/check.h"

#if __has_include(<sys/mman.h>)
#include <sys/mman.h>
#define RWLE_CONFLICT_TABLE_MMAP 1
#endif

namespace rwle {
namespace {

constexpr std::size_t kStorageBytes =
    std::size_t{ConflictTable::kSlotCount} * sizeof(ConflictTable::LineSlot) +
    std::size_t{ConflictTable::kReaderWords - 1} * ConflictTable::kSlotCount *
        sizeof(std::uint64_t);

}  // namespace

ConflictTable::ConflictTable() {
  // Anonymous mappings are zero-filled and backed page by page on first
  // write; calloc is the portable fallback. Either way nothing is written
  // here, and all-zero bytes are "unowned, no readers".
#ifdef RWLE_CONFLICT_TABLE_MMAP
  void* storage =
      mmap(nullptr, kStorageBytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  RWLE_CHECK(storage != MAP_FAILED && "conflict table mapping failed");
#ifdef MADV_NOHUGEPAGE
  // Back the table page by page even where transparent huge pages are on
  // by default: one write would otherwise back 2 MiB, spanning the hot
  // plane and the overflow planes next to it. Advisory, so a failure only
  // costs memory.
  (void)madvise(storage, kStorageBytes, MADV_NOHUGEPAGE);
#endif
#else
  void* storage = std::calloc(1, kStorageBytes);
  RWLE_CHECK(storage != nullptr && "conflict table allocation failed");
#endif
  slots_ = static_cast<LineSlot*>(storage);
  overflow_ = reinterpret_cast<std::uint64_t*>(slots_ + kSlotCount);
}

ConflictTable::~ConflictTable() {
#ifdef RWLE_CONFLICT_TABLE_MMAP
  munmap(slots_, kStorageBytes);
#else
  std::free(slots_);
#endif
}

}  // namespace rwle
