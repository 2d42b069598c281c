// TraceSink: where emit sites hand their events. The contract that keeps
// tracing free when off: every emit site calls EmitTraceEvent with a sink
// pointer that is null in the default configuration, so the whole hook
// reduces to one pointer test with a statically predictable branch -- no
// timestamp read, no event construction, no virtual call. The overhead
// budget (<5% modeled throughput, gated in CI by tools/bench_compare.py)
// is in fact 0% by construction for *modeled* time: tracing never calls
// CostMeter::Charge, it only reads the per-slot clocks.
//
// MemoryTraceSink is the production implementation: lazily allocated
// per-thread lock-free rings (see trace_ring.h), plus a run table so the
// Chrome exporter can label each benchmark run.
#ifndef RWLE_SRC_TRACE_TRACE_SINK_H_
#define RWLE_SRC_TRACE_TRACE_SINK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/slot_table.h"
#include "src/common/thread_registry.h"
#include "src/stats/cost_meter.h"
#include "src/trace/trace_event.h"
#include "src/trace/trace_ring.h"

namespace rwle {

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  // Called by the emitting thread with everything filled in but seq and
  // run_id (the sink stamps those). Must be safe to call concurrently from
  // all registered threads.
  virtual void Emit(const TraceEvent& event) = 0;
};

// Emit variant for callers that already resolved their thread slot (the HTM
// fabric passes TxContext::thread_slot()): identical behavior to the general
// overload below without re-reading the thread-local. `thread_slot` must be
// the calling thread's slot or kInvalidThreadSlot (no-op).
inline void EmitTraceEvent(TraceSink* sink, std::uint32_t thread_slot,
                           TraceEventType type, std::uint8_t detail_a = 0,
                           std::uint8_t detail_b = 0, std::uint64_t arg = 0) {
  if (sink == nullptr) [[likely]] {
    return;
  }
  if (thread_slot == kInvalidThreadSlot) {
    return;
  }
  TraceEvent event;
  event.timestamp = CostMeter::Global().SlotCycles(thread_slot);
  event.type = type;
  event.thread_slot = static_cast<std::uint16_t>(thread_slot);
  event.detail_a = detail_a;
  event.detail_b = detail_b;
  event.arg = arg;
  sink->Emit(event);
}

// The one emit helper every hook site uses. `sink == nullptr` is the
// tracing-off fast path and the branch predictor's steady state.
inline void EmitTraceEvent(TraceSink* sink, TraceEventType type,
                           std::uint8_t detail_a = 0, std::uint8_t detail_b = 0,
                           std::uint64_t arg = 0) {
  if (sink == nullptr) [[likely]] {
    return;
  }
  EmitTraceEvent(sink, CurrentThreadSlot(), type, detail_a, detail_b, arg);
}

// Collects events into one ring per thread slot. Lanes are allocated by
// the first event of each slot, in the slot's record of the sink; reading
// them and run labeling (set_scenario / BeginRun) are driver-side and must
// happen between runs, when no worker is emitting.
class MemoryTraceSink final : public TraceSink {
 public:
  static constexpr std::size_t kDefaultLaneCapacity = std::size_t{1} << 14;

  struct RunInfo {
    std::string scenario;
    std::string scheme;
    double panel_value = 0.0;
    std::uint32_t threads = 0;
  };

  explicit MemoryTraceSink(std::size_t lane_capacity = kDefaultLaneCapacity)
      : lane_capacity_(lane_capacity) {}

  MemoryTraceSink(const MemoryTraceSink&) = delete;
  MemoryTraceSink& operator=(const MemoryTraceSink&) = delete;

  void Emit(const TraceEvent& event) override {
    // The emitting thread's own record: the owner path.
    std::unique_ptr<Lane>& lane = lanes_.Local(event.thread_slot);
    if (lane == nullptr) {
      lane = std::make_unique<Lane>(lane_capacity_);
    }
    TraceEvent stamped = event;
    stamped.seq = lane->next_seq++;
    // Relaxed: the run id is changed only between runs while workers are
    // quiesced; an off-by-one-event stamp at a run boundary is harmless.
    stamped.run_id = current_run_.load(std::memory_order_relaxed);
    lane->ring.Push(stamped);
  }

  // Scenario name prefixed to every subsequent run label.
  void set_scenario(std::string scenario) { scenario_ = std::move(scenario); }
  // Starts a new labeled run; events emitted from here on carry its id.
  std::uint32_t BeginRun(const std::string& scheme, double panel_value,
                         std::uint32_t threads) {
    runs_.push_back(RunInfo{scenario_, scheme, panel_value, threads});
    const std::uint32_t id = static_cast<std::uint32_t>(runs_.size() - 1);
    // Relaxed: called between runs while no worker emits; the run start's
    // thread creation/join provides the ordering.
    current_run_.store(id, std::memory_order_relaxed);
    return id;
  }

  const std::vector<RunInfo>& runs() const { return runs_; }

  bool HasLane(std::uint32_t slot) const { return LaneOf(slot) != nullptr; }

  // Visits the lane's retained events oldest to newest; no-op for slots
  // that never emitted.
  template <typename Fn>
  void ForEachLaneEvent(std::uint32_t slot, Fn&& fn) const {
    if (const Lane* lane = LaneOf(slot)) {
      lane->ring.ForEach(fn);
    }
  }

  std::uint64_t TotalEvents() const {
    std::uint64_t total = 0;
    ForEachLane([&](const Lane& lane) { total += lane.ring.pushed(); });
    return total;
  }

  std::uint64_t DroppedEvents() const {
    std::uint64_t total = 0;
    ForEachLane([&](const Lane& lane) { total += lane.ring.dropped(); });
    return total;
  }

 private:
  struct Lane {
    explicit Lane(std::size_t capacity) : ring(capacity) {}
    TraceRing ring;
    std::uint32_t next_seq = 0;
  };

  const Lane* LaneOf(std::uint32_t slot) const {
    const std::unique_ptr<Lane>* lane = lanes_.Find(slot);
    return lane == nullptr ? nullptr : lane->get();
  }

  template <typename Fn>
  void ForEachLane(Fn&& fn) const {
    lanes_.ForEachPublished(kMaxThreads, [&](std::uint32_t, const std::unique_ptr<Lane>& lane) {
      if (lane != nullptr) {
        fn(*lane);
      }
    });
  }

  const std::size_t lane_capacity_;
  SlotTable<std::unique_ptr<Lane>> lanes_;
  std::atomic<std::uint32_t> current_run_{0};
  std::string scenario_;
  std::vector<RunInfo> runs_;
};

}  // namespace rwle

#endif  // RWLE_SRC_TRACE_TRACE_SINK_H_
