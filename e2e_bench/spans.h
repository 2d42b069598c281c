// Host-clock spans for the traced run, recorded from the benchmark's own
// code around its calls into the simulator (locks, workloads).
//
// Each thread owns a SpanBuffer. A span has a name, host start/end times
// (steady_clock, nanoseconds since the process's span epoch), the index of
// its parent in the same buffer, and the id of the operation it belongs to
// (the spans of one op share it). When an op's root span ends, the op's
// spans are folded into per-name totals (count, duration histogram, self
// time = duration minus the durations of the span's direct children), and
// the op is kept for the written-out trace only while the buffer is below
// its retention cap -- so memory stays bounded however long the run is.
//
// Spans read the host clock only; they never touch the modeled CostMeter,
// so modeled results are identical with tracing on or off.
#ifndef RWLE_E2E_BENCH_SPANS_H_
#define RWLE_E2E_BENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "e2e_bench/histogram.h"

namespace rwle::e2e {

enum class SpanName : std::uint8_t {
  kOp = 0,          // one benchmark operation (root)
  kLocksRead,       // ElidableLock::Read
  kLocksWrite,      // ElidableLock::Write
  kWorkloadsBody,   // one invocation of a critical-section body
  kSetup,           // building one fresh table (root)
  kLocksConstruct,  // the MakeLock calls of one setup
  kWorkloadsPopulate,  // TxHashMap::Populate
};
inline constexpr int kSpanNameCount = 7;

constexpr const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kOp:
      return "op";
    case SpanName::kLocksRead:
      return "locks.read";
    case SpanName::kLocksWrite:
      return "locks.write";
    case SpanName::kWorkloadsBody:
      return "workloads.body";
    case SpanName::kSetup:
      return "setup";
    case SpanName::kLocksConstruct:
      return "locks.construct";
    case SpanName::kWorkloadsPopulate:
      return "workloads.populate";
  }
  return "?";
}

inline std::uint64_t SpanClockNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - epoch)
                                        .count());
}

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t op = 0;  // shared by every span of one operation
  std::uint32_t parent = 0;
  SpanName name = SpanName::kOp;
};

inline constexpr std::uint32_t kNoParent = UINT32_MAX;

// Folded totals for one span name.
struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t children = 0;  // direct child spans
  double self_ns = 0.0;        // summed self time
  FineHistogram duration_ns;

  void Merge(const SpanTotals& other) {
    count += other.count;
    children += other.children;
    self_ns += other.self_ns;
    duration_ns.Merge(other.duration_ns);
  }
};

class SpanBuffer {
 public:
  // `thread` labels the buffer in the written trace; `retain` caps the
  // spans kept for it (whole operations only).
  SpanBuffer(std::uint32_t thread, std::size_t retain) : thread_(thread), retain_(retain) {
    spans_.reserve(retain + 64);
  }

  std::uint32_t Begin(SpanName name) {
    if (current_ == kNoParent) {
      op_begin_ = static_cast<std::uint32_t>(spans_.size());
      ++op_;
    }
    Span span;
    span.op = (std::uint64_t{thread_} << 40) | op_;
    span.parent = current_;
    span.name = name;
    const auto index = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(span);
    spans_[index].start_ns = SpanClockNs();
    current_ = index;
    return index;
  }

  void End(std::uint32_t index) {
    Span& span = spans_[index];
    span.end_ns = SpanClockNs();
    current_ = span.parent;
    if (current_ == kNoParent) {
      FoldOp();
    }
  }

  const std::vector<Span>& retained() const { return spans_; }
  const SpanTotals& totals(SpanName name) const { return totals_[static_cast<int>(name)]; }

 private:
  void FoldOp() {
    const auto end = static_cast<std::uint32_t>(spans_.size());
    for (std::uint32_t i = op_begin_; i < end; ++i) {
      const Span& span = spans_[i];
      const double duration = static_cast<double>(span.end_ns - span.start_ns);
      SpanTotals& mine = totals_[static_cast<int>(span.name)];
      ++mine.count;
      mine.duration_ns.Record(span.end_ns - span.start_ns);
      mine.self_ns += duration;
      if (span.parent != kNoParent) {
        SpanTotals& parent = totals_[static_cast<int>(spans_[span.parent].name)];
        ++parent.children;
        parent.self_ns -= duration;
      }
    }
    if (full_ || spans_.size() > retain_) {
      full_ = true;
      spans_.resize(op_begin_);
    }
  }

  std::uint32_t thread_;
  std::size_t retain_;
  std::vector<Span> spans_;
  std::uint32_t current_ = kNoParent;
  std::uint32_t op_begin_ = 0;
  std::uint64_t op_ = 0;
  bool full_ = false;
  SpanTotals totals_[kSpanNameCount];
};

// RAII span; a null buffer (tracing off) makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, SpanName name)
      : buffer_(buffer), index_(buffer != nullptr ? buffer->Begin(name) : 0) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) {
      buffer_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buffer_;
  std::uint32_t index_;
};

}  // namespace rwle::e2e

#endif  // RWLE_E2E_BENCH_SPANS_H_
