// Per-thread latency accounting for lock operations: one histogram per
// (op kind, commit path) pair and thread slot, so recording is an
// unsynchronized owner-thread write. Per-slot records live in a SlotTable
// (src/common/slot_table.h): a record is the slot's eight histogram
// pointers, and each ~8 KiB histogram is allocated by the first Record of
// its (op, path) pair -- a reader-only thread costs one histogram, not
// eight, and slots that never record cost nothing past their segment.
// Snapshot/Reset are harvest-time operations over the published records
// below the registry high watermark: the harness calls them when no worker
// thread is recording.
#ifndef RWLE_SRC_TRACE_LATENCY_REGISTRY_H_
#define RWLE_SRC_TRACE_LATENCY_REGISTRY_H_

#include <atomic>
#include <cstdint>

#include "src/common/slot_table.h"
#include "src/common/thread_registry.h"
#include "src/stats/stats.h"
#include "src/trace/latency_histogram.h"
#include "src/trace/trace_event.h"

namespace rwle {

// Summary of one histogram, in modeled cycles (= nanoseconds, see
// CostModel::kCyclesPerSecond). Small enough to embed in every RunResult,
// unlike the 8 KiB histogram it is computed from.
struct LatencyStats {
  std::uint64_t count = 0;
  double mean = 0.0;
  std::uint64_t p50 = 0;
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t p999 = 0;
  std::uint64_t max = 0;
};

// Harvested view of a LatencyRegistry: per-op totals plus the per-path
// breakdown (e.g. how much slower a write that fell back to the serial
// lock was than one that committed in HTM).
struct LatencySnapshot {
  LatencyStats op[kOpKindCount];
  LatencyStats by_path[kOpKindCount][kCommitPathCount];
};

class LatencyRegistry {
 public:
  LatencyRegistry() = default;
  LatencyRegistry(const LatencyRegistry&) = delete;
  LatencyRegistry& operator=(const LatencyRegistry&) = delete;

  // Owner-thread write; allocates the (op, path) histogram on first use.
  void Record(std::uint32_t slot, OpKind op, CommitPath path, std::uint64_t cycles) {
    std::atomic<LatencyHistogram*>& entry =
        records_.Local(slot).hist[static_cast<int>(op)][static_cast<int>(path)];
    // Relaxed: only the owner thread writes this entry, so it reads its own
    // prior store -- program order suffices.
    LatencyHistogram* hist = entry.load(std::memory_order_relaxed);
    if (hist == nullptr) {
      hist = new LatencyHistogram();
      // Release: publishes the histogram's construction to the cross-thread
      // acquire loads in Snapshot()/Reset()/the record destructor.
      entry.store(hist, std::memory_order_release);
    }
    hist->Record(cycles);
  }

  // Merges all records and summarizes. Call only while no thread is
  // recording (between runs).
  LatencySnapshot Snapshot() const {
    LatencySnapshot snapshot;
    const std::uint32_t end = ThreadRegistry::Global().HighWatermark();
    for (int op = 0; op < kOpKindCount; ++op) {
      LatencyHistogram overall;
      for (int path = 0; path < kCommitPathCount; ++path) {
        LatencyHistogram merged;
        records_.ForEachPublished(end, [&](std::uint32_t, const SlotRecord& record) {
          // Acquire: pairs with Record()'s release so the histogram is seen
          // fully constructed (its contents are quiesced by contract).
          if (const LatencyHistogram* hist =
                  record.hist[op][path].load(std::memory_order_acquire)) {
            merged.Merge(*hist);
          }
        });
        snapshot.by_path[op][path] = Summarize(merged);
        overall.Merge(merged);
      }
      snapshot.op[op] = Summarize(overall);
    }
    return snapshot;
  }

  // Clears all counters (histograms stay allocated). Same caveat as
  // Snapshot.
  void Reset() {
    records_.ForEachPublished(ThreadRegistry::Global().HighWatermark(),
                              [](std::uint32_t, SlotRecord& record) {
                                for (auto& per_op : record.hist) {
                                  for (auto& entry : per_op) {
                                    // Acquire: same pairing as Snapshot().
                                    if (LatencyHistogram* hist =
                                            entry.load(std::memory_order_acquire)) {
                                      hist->Reset();
                                    }
                                  }
                                }
                              });
  }

  static LatencyStats Summarize(const LatencyHistogram& hist) {
    LatencyStats stats;
    stats.count = hist.count();
    stats.mean = hist.Mean();
    stats.p50 = hist.ValueAtPercentile(50.0);
    stats.p90 = hist.ValueAtPercentile(90.0);
    stats.p99 = hist.ValueAtPercentile(99.0);
    stats.p999 = hist.ValueAtPercentile(99.9);
    stats.max = hist.max();
    return stats;
  }

 private:
  struct SlotRecord {
    std::atomic<LatencyHistogram*> hist[kOpKindCount][kCommitPathCount] = {};

    SlotRecord() = default;
    SlotRecord(const SlotRecord&) = delete;
    SlotRecord& operator=(const SlotRecord&) = delete;
    ~SlotRecord() {
      for (auto& per_op : hist) {
        for (auto& entry : per_op) {
          // Acquire: pairs with the owner's release publication so the
          // histogram is seen fully constructed before deletion.
          delete entry.load(std::memory_order_acquire);
        }
      }
    }
  };

  SlotTable<SlotRecord> records_;
};

}  // namespace rwle

#endif  // RWLE_SRC_TRACE_LATENCY_REGISTRY_H_
