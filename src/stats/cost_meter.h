// Modeled-cost accounting.
//
// Host wall-clock time cannot reproduce the paper's 80-thread curves, so
// every unit of work is charged to one of three buckets depending on what it
// can overlap with (see DESIGN.md §1):
//   - parallel:      overlaps with everything (reader sections, speculative
//                    writer attempts, wasted aborted work)
//   - writer-serial: serialized among writers but concurrent with readers
//                    (RW-LE's ROT critical sections)
//   - global-serial: excludes all other critical sections (NS / SGL / RWL
//                    write / BRLock write / HLE fallback)
// The harness then models the N-thread makespan as
//     T(N) = S + max(W, P / N)        [S = global, W = writer, P = parallel]
// a standard critical-path bound that preserves who-wins orderings and
// crossover positions from the paper's figures.
//
// Charging is done by the HTM fabric (per access / begin / commit / abort)
// and by the lock implementations (acquire/release, quiescence scans), into
// the shard in the thread's ThreadState; its serial depths pick the bucket.
#ifndef RWLE_SRC_STATS_COST_METER_H_
#define RWLE_SRC_STATS_COST_METER_H_

#include <atomic>
#include <cstdint>

#include "src/common/thread_registry.h"
#include "src/htm/thread_state.h"

namespace rwle {

// Unit costs, in abstract cycles. Fabric accesses dominate critical
// sections, so workload shape flows through automatically; the fixed costs
// reflect the paper's observation that tx begin/commit take tens to a few
// hundred cycles.
struct CostModel {
  static constexpr std::uint64_t kAccess = 1;
  static constexpr std::uint64_t kTxBegin = 20;
  static constexpr std::uint64_t kTxCommit = 30;
  static constexpr std::uint64_t kTxAbort = 30;
  static constexpr std::uint64_t kLockOp = 5;
  // One padded cache line per thread and pass.
  static constexpr std::uint64_t kClockScanPerThread = 1;
  static constexpr std::uint64_t kPageFault = 50;
  // Cycles per modeled second when converting to time.
  static constexpr double kCyclesPerSecond = 1e9;
};

enum class SerialScope : std::uint8_t { kWriters = 0, kGlobal = 1 };

class CostMeter {
 public:
  static CostMeter& Global() {
    static CostMeter meter;
    return meter;
  }

  using Totals = CostTotals;

  // Charges the calling thread; a no-op on an unregistered thread.
  void Charge(std::uint64_t units) {
    ThreadState* self = CurrentThreadState();
    if (self == nullptr) {
      return;
    }
    CostShard& shard = self->cost;
    if (shard.global_depth > 0) {
      shard.totals.global_serial += units;
    } else if (shard.writer_depth > 0) {
      shard.totals.writer_serial += units;
    } else {
      shard.totals.parallel += units;
    }
  }

  // Charge when the caller already holds its thread slot. `slot` must be
  // this thread's slot or kInvalidThreadSlot, which is a no-op.
  void ChargeAt(std::uint32_t slot, std::uint64_t units) {
    if (slot != kInvalidThreadSlot) {
      Charge(units);
    }
  }

  // Charge for a read-modify-write on a *centrally shared* cache line
  // (pthread-RWL counters, SGL word, ...). Such lines bounce between all
  // participating caches, so the cost scales with the thread count; this is
  // the coherence-contention effect that makes centralized reader counters
  // collapse at high thread counts in the paper's figures. Per-thread lines
  // (RW-LE epoch clocks, BRLock private mutexes) use plain Charge instead.
  void ChargeContended(std::uint64_t units) {
    // Relaxed: the factor is a run-wide constant set before workers start
    // (thread creation synchronizes); no ordering needed per charge.
    Charge(units * contention_factor_.load(std::memory_order_relaxed));
  }

  // Set by the harness to the thread count of the current run.
  void set_contention_factor(std::uint32_t factor) {
    // Relaxed: written while single-threaded, before workers are spawned.
    contention_factor_.store(factor == 0 ? 1 : factor, std::memory_order_relaxed);
  }

  void EnterSerial(SerialScope scope) {
    if (ThreadState* self = CurrentThreadState()) {
      ++Depth(self->cost, scope);
    }
  }

  void ExitSerial(SerialScope scope) {
    if (ThreadState* self = CurrentThreadState()) {
      --Depth(self->cost, scope);
    }
  }

  // Total modeled cycles this slot has consumed across all buckets: the
  // per-thread clock the trace layer stamps events with. Owner-thread read
  // (or harvest after join); never charges anything itself.
  std::uint64_t SlotCycles(std::uint32_t slot) const {
    const ThreadState* state = ThreadStates().Find(slot);
    const Totals totals = state == nullptr ? Totals{} : state->cost.totals;
    return totals.parallel + totals.writer_serial + totals.global_serial;
  }

  // Harvest and reset walk only the blocks below the registry high
  // watermark: no thread has ever charged one past it.
  Totals Aggregate() const {
    Totals totals;
    const std::uint32_t end = ThreadRegistry::Global().HighWatermark();
    ThreadStates().ForEachPublished(end, [&](std::uint32_t, const ThreadState& state) {
      totals.parallel += state.cost.totals.parallel;
      totals.writer_serial += state.cost.totals.writer_serial;
      totals.global_serial += state.cost.totals.global_serial;
    });
    return totals;
  }

  void Reset() {
    ThreadStates().ForEachPublished(
        ThreadRegistry::Global().HighWatermark(),
        [](std::uint32_t, ThreadState& state) { state.cost.totals = Totals{}; });
  }

  // The makespan bound described above, in modeled seconds.
  static double ModeledSeconds(const Totals& totals, std::uint32_t threads) {
    const double parallel = static_cast<double>(totals.parallel) / threads;
    const double writer = static_cast<double>(totals.writer_serial);
    const double serial = static_cast<double>(totals.global_serial);
    const double cycles = serial + (writer > parallel ? writer : parallel);
    return cycles / CostModel::kCyclesPerSecond;
  }

 private:
  static std::uint32_t& Depth(CostShard& shard, SerialScope scope) {
    return scope == SerialScope::kGlobal ? shard.global_depth : shard.writer_depth;
  }

  std::atomic<std::uint32_t> contention_factor_{1};
};

// RAII serial-section marker used by lock implementations.
class SerialSectionScope {
 public:
  explicit SerialSectionScope(SerialScope scope) : scope_(scope) {
    CostMeter::Global().EnterSerial(scope_);
  }
  ~SerialSectionScope() { CostMeter::Global().ExitSerial(scope_); }

  SerialSectionScope(const SerialSectionScope&) = delete;
  SerialSectionScope& operator=(const SerialSectionScope&) = delete;

 private:
  SerialScope scope_;
};

}  // namespace rwle

#endif  // RWLE_SRC_STATS_COST_METER_H_
