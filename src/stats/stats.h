// Execution statistics matching the panels of the paper's figures: a
// breakdown of how critical sections committed (HTM / ROT / serial lock /
// uninstrumented read) and why speculative attempts aborted (the six
// categories in the figures' legends).
//
// Counters are sharded per thread slot and written without synchronization
// by the owning thread; aggregation happens between runs. Shards live in a
// SlotTable (src/common/slot_table.h), so a registry holds memory only for
// the segments of slots that have recorded something: either its own table
// of padded shards, or -- for a lock that keeps all of its per-slot state
// in one record, like RwLeLock -- a view of the ThreadStats member of that
// lock's records.
#ifndef RWLE_SRC_STATS_STATS_H_
#define RWLE_SRC_STATS_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "src/common/cpu.h"
#include "src/common/slot_table.h"
#include "src/common/thread_registry.h"
#include "src/htm/abort.h"
#include "src/htm/thread_state.h"

namespace rwle {

enum class CommitPath : std::uint8_t {
  kHtm = 0,                 // committed as a regular hardware transaction
  kRot = 1,                 // committed as a rollback-only transaction
  kSerial = 2,              // executed under the serial (SGL / NS) lock
  kUninstrumentedRead = 3,  // RW-LE read critical section (no speculation)
};
inline constexpr int kCommitPathCount = 4;

constexpr const char* CommitPathName(CommitPath path) {
  switch (path) {
    case CommitPath::kHtm:
      return "HTM";
    case CommitPath::kRot:
      return "ROT";
    case CommitPath::kSerial:
      return "SGL";
    case CommitPath::kUninstrumentedRead:
      return "Uninstrumented";
  }
  return "?";
}

// The abort legend of Figures 3-10.
enum class AbortCategory : std::uint8_t {
  kHtmTxConflict = 0,  // "HTM tx": conflict with another hardware transaction
  kHtmNonTx = 1,       // "HTM non-tx": non-transactional conflict / interrupt
  kHtmCapacity = 2,    // "HTM capacity"
  kLockAborts = 3,     // "Lock aborts": global lock busy upon subscription
  kRotConflict = 4,    // "ROT conflicts"
  kRotCapacity = 5,    // "ROT capacity"
};
inline constexpr int kAbortCategoryCount = 6;

constexpr const char* AbortCategoryName(AbortCategory category) {
  switch (category) {
    case AbortCategory::kHtmTxConflict:
      return "HTM tx";
    case AbortCategory::kHtmNonTx:
      return "HTM non-tx";
    case AbortCategory::kHtmCapacity:
      return "HTM capacity";
    case AbortCategory::kLockAborts:
      return "Lock aborts";
    case AbortCategory::kRotConflict:
      return "ROT conflicts";
    case AbortCategory::kRotCapacity:
      return "ROT capacity";
  }
  return "?";
}

// Stable machine-readable identifiers for serialized results (JSON keys,
// bench_compare.py). Display names above may change; these must not.
constexpr const char* CommitPathKey(CommitPath path) {
  switch (path) {
    case CommitPath::kHtm:
      return "htm";
    case CommitPath::kRot:
      return "rot";
    case CommitPath::kSerial:
      return "serial";
    case CommitPath::kUninstrumentedRead:
      return "uninstrumented_read";
  }
  return "unknown";
}

constexpr const char* AbortCategoryKey(AbortCategory category) {
  switch (category) {
    case AbortCategory::kHtmTxConflict:
      return "htm_tx_conflict";
    case AbortCategory::kHtmNonTx:
      return "htm_non_tx";
    case AbortCategory::kHtmCapacity:
      return "htm_capacity";
    case AbortCategory::kLockAborts:
      return "lock_aborts";
    case AbortCategory::kRotConflict:
      return "rot_conflict";
    case AbortCategory::kRotCapacity:
      return "rot_capacity";
  }
  return "unknown";
}

// Maps an HTM-facility abort to the figure category, given the kind of
// transaction that died.
constexpr AbortCategory ClassifyAbort(TxKind kind, AbortCause cause) {
  if (kind == TxKind::kRot) {
    if (cause == AbortCause::kCapacityRead || cause == AbortCause::kCapacityWrite) {
      return AbortCategory::kRotCapacity;
    }
    if (cause == AbortCause::kExplicit) {
      return AbortCategory::kLockAborts;
    }
    return AbortCategory::kRotConflict;
  }
  switch (cause) {
    case AbortCause::kConflictTx:
      return AbortCategory::kHtmTxConflict;
    case AbortCause::kCapacityRead:
    case AbortCause::kCapacityWrite:
      return AbortCategory::kHtmCapacity;
    case AbortCause::kExplicit:
      return AbortCategory::kLockAborts;
    case AbortCause::kConflictNonTx:
    case AbortCause::kInterrupt:
    default:
      return AbortCategory::kHtmNonTx;
  }
}

// BRAVO bias / revocation events (src/locks/bravo_lock.h and the BRAVO
// fallback inside RwLeLock). Counted separately from commits/aborts: one
// read section can tick several of these (publish, collide, retry slow).
enum class BravoCounter : std::uint8_t {
  kFastRead = 0,       // read admitted through the distributed table
  kSlowRead = 1,       // read fell through to the centralized underlay
  kParkedRead = 2,     // RW-LE fallback: read parked awaiting an NS writer
  kAliasedPark = 3,    // slot-hash collision degraded the read to centralized
  kBiasArm = 4,        // bias switched on (off -> on transitions)
  kRevocation = 5,     // writer revoked the bias
  kRevokedReader = 6,  // occupied table entries drained during revocations
};
inline constexpr int kBravoCounterCount = 7;

constexpr const char* BravoCounterName(BravoCounter counter) {
  switch (counter) {
    case BravoCounter::kFastRead:
      return "BRAVO fast";
    case BravoCounter::kSlowRead:
      return "BRAVO slow";
    case BravoCounter::kParkedRead:
      return "BRAVO parked";
    case BravoCounter::kAliasedPark:
      return "BRAVO aliased";
    case BravoCounter::kBiasArm:
      return "BRAVO bias arms";
    case BravoCounter::kRevocation:
      return "BRAVO revocations";
    case BravoCounter::kRevokedReader:
      return "BRAVO revoked readers";
  }
  return "?";
}

constexpr const char* BravoCounterKey(BravoCounter counter) {
  switch (counter) {
    case BravoCounter::kFastRead:
      return "fast_reads";
    case BravoCounter::kSlowRead:
      return "slow_reads";
    case BravoCounter::kParkedRead:
      return "parked_reads";
    case BravoCounter::kAliasedPark:
      return "aliased_parks";
    case BravoCounter::kBiasArm:
      return "bias_arms";
    case BravoCounter::kRevocation:
      return "revocations";
    case BravoCounter::kRevokedReader:
      return "revoked_readers";
  }
  return "unknown";
}

// Transaction-chopping events (src/chop/chopped_section.h). A chopped write
// section commits as a chain of piece-wise HTM/ROT commits; these counters
// expose how chains progressed and where they fell off the speculative
// ladder. Counted alongside commits/aborts: each piece attempt still ticks
// the regular commit/abort breakdowns.
enum class ChopCounter : std::uint8_t {
  kChain = 0,           // chains that committed (final piece published)
  kPiece = 1,           // piece commits captured into a chain carryover
  kPieceAbort = 2,      // speculative piece attempts that aborted
  kChainUnwind = 3,     // chains unwound after a piece exhausted its retries
  kNsFallback = 4,      // chopped sections demoted to the NS serial path
  kCarryoverBytes = 5,  // bytes of captured stores carried between pieces
};
inline constexpr int kChopCounterCount = 6;

constexpr const char* ChopCounterName(ChopCounter counter) {
  switch (counter) {
    case ChopCounter::kChain:
      return "Chop chains";
    case ChopCounter::kPiece:
      return "Chop pieces";
    case ChopCounter::kPieceAbort:
      return "Chop piece aborts";
    case ChopCounter::kChainUnwind:
      return "Chop unwinds";
    case ChopCounter::kNsFallback:
      return "Chop NS fallbacks";
    case ChopCounter::kCarryoverBytes:
      return "Chop carryover bytes";
  }
  return "?";
}

constexpr const char* ChopCounterKey(ChopCounter counter) {
  switch (counter) {
    case ChopCounter::kChain:
      return "chains";
    case ChopCounter::kPiece:
      return "pieces";
    case ChopCounter::kPieceAbort:
      return "piece_aborts";
    case ChopCounter::kChainUnwind:
      return "chain_unwinds";
    case ChopCounter::kNsFallback:
      return "ns_fallbacks";
    case ChopCounter::kCarryoverBytes:
      return "carryover_bytes";
  }
  return "unknown";
}

// One named counter of a breakdown, in legend order: the human label used
// by the table renderer, the stable key used by the JSON serializer, and
// the count itself.
struct CounterView {
  const char* label;
  const char* key;
  std::uint64_t count;
};

// Snapshot of the commit-path counters with one named field per legend
// entry. Both the figure renderer and the result serializer consume this
// (rather than indexing raw arrays), so the set of categories has a single
// authoritative description.
struct CommitBreakdown {
  std::uint64_t htm = 0;
  std::uint64_t rot = 0;
  std::uint64_t serial = 0;
  std::uint64_t uninstrumented_read = 0;

  std::uint64_t Total() const { return htm + rot + serial + uninstrumented_read; }

  // Legend order of the paper's commit-type panels.
  std::array<CounterView, kCommitPathCount> Entries() const {
    return {{
        {CommitPathName(CommitPath::kHtm), CommitPathKey(CommitPath::kHtm), htm},
        {CommitPathName(CommitPath::kRot), CommitPathKey(CommitPath::kRot), rot},
        {CommitPathName(CommitPath::kSerial), CommitPathKey(CommitPath::kSerial),
         serial},
        {CommitPathName(CommitPath::kUninstrumentedRead),
         CommitPathKey(CommitPath::kUninstrumentedRead), uninstrumented_read},
    }};
  }
};

// Snapshot of the abort counters; same contract as CommitBreakdown.
struct AbortBreakdown {
  std::uint64_t htm_tx_conflict = 0;
  std::uint64_t htm_non_tx = 0;
  std::uint64_t htm_capacity = 0;
  std::uint64_t lock_aborts = 0;
  std::uint64_t rot_conflict = 0;
  std::uint64_t rot_capacity = 0;

  std::uint64_t Total() const {
    return htm_tx_conflict + htm_non_tx + htm_capacity + lock_aborts + rot_conflict +
           rot_capacity;
  }

  // Legend order of the paper's abort panels (Figures 3-10).
  std::array<CounterView, kAbortCategoryCount> Entries() const {
    return {{
        {AbortCategoryName(AbortCategory::kHtmTxConflict),
         AbortCategoryKey(AbortCategory::kHtmTxConflict), htm_tx_conflict},
        {AbortCategoryName(AbortCategory::kHtmNonTx),
         AbortCategoryKey(AbortCategory::kHtmNonTx), htm_non_tx},
        {AbortCategoryName(AbortCategory::kHtmCapacity),
         AbortCategoryKey(AbortCategory::kHtmCapacity), htm_capacity},
        {AbortCategoryName(AbortCategory::kLockAborts),
         AbortCategoryKey(AbortCategory::kLockAborts), lock_aborts},
        {AbortCategoryName(AbortCategory::kRotConflict),
         AbortCategoryKey(AbortCategory::kRotConflict), rot_conflict},
        {AbortCategoryName(AbortCategory::kRotCapacity),
         AbortCategoryKey(AbortCategory::kRotCapacity), rot_capacity},
    }};
  }
};

// Snapshot of the BRAVO counters; same contract as CommitBreakdown. All
// zero for schemes without a BRAVO component (the serializer omits the
// block then).
struct BravoBreakdown {
  std::uint64_t fast_reads = 0;
  std::uint64_t slow_reads = 0;
  std::uint64_t parked_reads = 0;
  std::uint64_t aliased_parks = 0;
  std::uint64_t bias_arms = 0;
  std::uint64_t revocations = 0;
  std::uint64_t revoked_readers = 0;

  std::uint64_t Total() const {
    return fast_reads + slow_reads + parked_reads + aliased_parks + bias_arms +
           revocations + revoked_readers;
  }

  std::array<CounterView, kBravoCounterCount> Entries() const {
    return {{
        {BravoCounterName(BravoCounter::kFastRead),
         BravoCounterKey(BravoCounter::kFastRead), fast_reads},
        {BravoCounterName(BravoCounter::kSlowRead),
         BravoCounterKey(BravoCounter::kSlowRead), slow_reads},
        {BravoCounterName(BravoCounter::kParkedRead),
         BravoCounterKey(BravoCounter::kParkedRead), parked_reads},
        {BravoCounterName(BravoCounter::kAliasedPark),
         BravoCounterKey(BravoCounter::kAliasedPark), aliased_parks},
        {BravoCounterName(BravoCounter::kBiasArm),
         BravoCounterKey(BravoCounter::kBiasArm), bias_arms},
        {BravoCounterName(BravoCounter::kRevocation),
         BravoCounterKey(BravoCounter::kRevocation), revocations},
        {BravoCounterName(BravoCounter::kRevokedReader),
         BravoCounterKey(BravoCounter::kRevokedReader), revoked_readers},
    }};
  }
};

// Snapshot of the chopping counters; same contract as CommitBreakdown. All
// zero for runs without chopped sections (the serializer omits the block
// then).
struct ChopBreakdown {
  std::uint64_t chains = 0;
  std::uint64_t pieces = 0;
  std::uint64_t piece_aborts = 0;
  std::uint64_t chain_unwinds = 0;
  std::uint64_t ns_fallbacks = 0;
  std::uint64_t carryover_bytes = 0;

  std::uint64_t Total() const {
    return chains + pieces + piece_aborts + chain_unwinds + ns_fallbacks +
           carryover_bytes;
  }

  std::array<CounterView, kChopCounterCount> Entries() const {
    return {{
        {ChopCounterName(ChopCounter::kChain), ChopCounterKey(ChopCounter::kChain),
         chains},
        {ChopCounterName(ChopCounter::kPiece), ChopCounterKey(ChopCounter::kPiece),
         pieces},
        {ChopCounterName(ChopCounter::kPieceAbort),
         ChopCounterKey(ChopCounter::kPieceAbort), piece_aborts},
        {ChopCounterName(ChopCounter::kChainUnwind),
         ChopCounterKey(ChopCounter::kChainUnwind), chain_unwinds},
        {ChopCounterName(ChopCounter::kNsFallback),
         ChopCounterKey(ChopCounter::kNsFallback), ns_fallbacks},
        {ChopCounterName(ChopCounter::kCarryoverBytes),
         ChopCounterKey(ChopCounter::kCarryoverBytes), carryover_bytes},
    }};
  }
};

struct StatsSnapshot {
  CommitBreakdown commits;
  AbortBreakdown aborts;
  BravoBreakdown bravo;
  ChopBreakdown chop;

  std::uint64_t TotalAttempts() const { return commits.Total() + aborts.Total(); }
};

// Open-loop service measurement (bench/scenarios/service.cc): a Poisson
// arrival stream pushed through a fixed server pool, with per-request
// sojourn time (queue wait + service time) summarized against a latency
// SLO. Attached to a RunResult by RunServiceBenchmark; `arrivals` == 0
// means "not a service run" and the serializer omits the block. Field
// names are serialized verbatim as JSON keys (stats_keys.json manifest).
struct ServiceSnapshot {
  double offered_rate_ops = 0.0;   // configured Poisson arrival rate, ops/s
  double achieved_rate_ops = 0.0;  // completions / horizon_seconds
  std::uint64_t arrivals = 0;
  std::uint64_t completions = 0;
  double horizon_seconds = 0.0;  // modeled time until the last completion
  double sojourn_mean_ns = 0.0;  // sojourn = queue wait + service time
  std::uint64_t sojourn_p50_ns = 0;
  std::uint64_t sojourn_p90_ns = 0;
  std::uint64_t sojourn_p99_ns = 0;
  std::uint64_t sojourn_p999_ns = 0;
  std::uint64_t sojourn_max_ns = 0;
  double queue_delay_mean_ns = 0.0;
  std::uint64_t queue_delay_max_ns = 0;
  std::uint64_t slo_p99_ns = 0;  // 0 = no target configured
  std::uint64_t slo_p999_ns = 0;
  bool slo_met = false;
};

// Portability-matrix measurement (bench/scenarios/portability.cc): one
// benchmark cell run under a named hardware profile (src/htm/hw_profile.h),
// with the workload's own pair-invariant checks folded in. `torn_observed`
// counts section executions that saw a half-updated pair (zombie windows
// included -- the lazy-subscription hazard); `torn_committed` counts
// sections whose *final* execution still saw one (the section was not
// aborted afterwards -- the limited-tracking hazard). An empty hw_profile
// means "not a portability run" and the serializer omits the block. Field
// names are serialized verbatim as JSON keys (stats_keys.json manifest).
struct PortabilitySnapshot {
  std::string hw_profile;
  std::uint64_t torn_observed = 0;
  std::uint64_t torn_committed = 0;
};

struct ThreadStats {
  std::uint64_t commits[kCommitPathCount] = {};
  std::uint64_t aborts[kAbortCategoryCount] = {};
  std::uint64_t bravo[kBravoCounterCount] = {};
  std::uint64_t chop[kChopCounterCount] = {};

  void RecordCommit(CommitPath path) { commits[static_cast<int>(path)]++; }

  void RecordAbort(TxKind kind, AbortCause cause) {
    aborts[static_cast<int>(ClassifyAbort(kind, cause))]++;
  }

  void RecordBravo(BravoCounter counter, std::uint64_t n = 1) {
    bravo[static_cast<int>(counter)] += n;
  }

  void RecordChop(ChopCounter counter, std::uint64_t n = 1) {
    chop[static_cast<int>(counter)] += n;
  }

  std::uint64_t TotalCommits() const {
    std::uint64_t total = 0;
    for (const auto c : commits) {
      total += c;
    }
    return total;
  }

  std::uint64_t TotalAborts() const {
    std::uint64_t total = 0;
    for (const auto a : aborts) {
      total += a;
    }
    return total;
  }

  // The named view of these counters (see CommitBreakdown / AbortBreakdown).
  StatsSnapshot Snapshot() const {
    StatsSnapshot snapshot;
    snapshot.commits.htm = commits[static_cast<int>(CommitPath::kHtm)];
    snapshot.commits.rot = commits[static_cast<int>(CommitPath::kRot)];
    snapshot.commits.serial = commits[static_cast<int>(CommitPath::kSerial)];
    snapshot.commits.uninstrumented_read =
        commits[static_cast<int>(CommitPath::kUninstrumentedRead)];
    snapshot.aborts.htm_tx_conflict =
        aborts[static_cast<int>(AbortCategory::kHtmTxConflict)];
    snapshot.aborts.htm_non_tx = aborts[static_cast<int>(AbortCategory::kHtmNonTx)];
    snapshot.aborts.htm_capacity =
        aborts[static_cast<int>(AbortCategory::kHtmCapacity)];
    snapshot.aborts.lock_aborts = aborts[static_cast<int>(AbortCategory::kLockAborts)];
    snapshot.aborts.rot_conflict =
        aborts[static_cast<int>(AbortCategory::kRotConflict)];
    snapshot.aborts.rot_capacity =
        aborts[static_cast<int>(AbortCategory::kRotCapacity)];
    snapshot.bravo.fast_reads = bravo[static_cast<int>(BravoCounter::kFastRead)];
    snapshot.bravo.slow_reads = bravo[static_cast<int>(BravoCounter::kSlowRead)];
    snapshot.bravo.parked_reads = bravo[static_cast<int>(BravoCounter::kParkedRead)];
    snapshot.bravo.aliased_parks =
        bravo[static_cast<int>(BravoCounter::kAliasedPark)];
    snapshot.bravo.bias_arms = bravo[static_cast<int>(BravoCounter::kBiasArm)];
    snapshot.bravo.revocations = bravo[static_cast<int>(BravoCounter::kRevocation)];
    snapshot.bravo.revoked_readers =
        bravo[static_cast<int>(BravoCounter::kRevokedReader)];
    snapshot.chop.chains = chop[static_cast<int>(ChopCounter::kChain)];
    snapshot.chop.pieces = chop[static_cast<int>(ChopCounter::kPiece)];
    snapshot.chop.piece_aborts = chop[static_cast<int>(ChopCounter::kPieceAbort)];
    snapshot.chop.chain_unwinds =
        chop[static_cast<int>(ChopCounter::kChainUnwind)];
    snapshot.chop.ns_fallbacks = chop[static_cast<int>(ChopCounter::kNsFallback)];
    snapshot.chop.carryover_bytes =
        chop[static_cast<int>(ChopCounter::kCarryoverBytes)];
    return snapshot;
  }

  ThreadStats& operator+=(const ThreadStats& other) {
    for (int i = 0; i < kCommitPathCount; ++i) {
      commits[i] += other.commits[i];
    }
    for (int i = 0; i < kAbortCategoryCount; ++i) {
      aborts[i] += other.aborts[i];
    }
    for (int i = 0; i < kBravoCounterCount; ++i) {
      bravo[i] += other.bravo[i];
    }
    for (int i = 0; i < kChopCounterCount; ++i) {
      chop[i] += other.chop[i];
    }
    return *this;
  }
};

// Per-slot ThreadStats on a SlotTable. Recording is an unsynchronized
// owner-thread write to the calling thread's shard; Aggregate/Reset walk the
// published segments below the registry high watermark and must run while
// no thread records (between runs, or with workers parked on a barrier).
class StatsRegistry {
 public:
  // Owns its shards: one ThreadStats per slot, padded to cache lines.
  StatsRegistry()
      : own_(std::make_unique<SlotTable<Shard>>()),
        shards_(own_->Column<ThreadStats>(offsetof(Shard, stats))) {}

  // Views the ThreadStats member of another table's records.
  explicit StatsRegistry(SlotColumn<ThreadStats> shards) : shards_(shards) {}

  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  // The calling thread's shard (requires a registered ScopedThreadSlot).
  ThreadStats& Local() { return Local(CurrentThreadSlot()); }
  // `slot` must be the calling thread's slot.
  ThreadStats& Local(std::uint32_t slot) { return shards_.Local(slot); }

  void RecordCommit(CommitPath path) { Local().RecordCommit(path); }

  void RecordAbort(TxKind kind, AbortCause cause) { Local().RecordAbort(kind, cause); }

  void RecordBravo(BravoCounter counter, std::uint64_t n = 1) {
    Local().RecordBravo(counter, n);
  }

  void RecordChop(ChopCounter counter, std::uint64_t n = 1) {
    Local().RecordChop(counter, n);
  }

  ThreadStats Aggregate() const {
    ThreadStats total;
    shards_.ForEachPublished(ThreadRegistry::Global().HighWatermark(),
                             [&](std::uint32_t, const ThreadStats& shard) { total += shard; });
    return total;
  }

  void Reset() {
    shards_.ForEachPublished(ThreadRegistry::Global().HighWatermark(),
                             [](std::uint32_t, ThreadStats& shard) { shard = ThreadStats{}; });
  }

 private:
  struct alignas(kCacheLineBytes) Shard {
    ThreadStats stats;
  };

  std::unique_ptr<SlotTable<Shard>> own_;  // null when viewing another table
  SlotColumn<ThreadStats> shards_;
};

}  // namespace rwle

#endif  // RWLE_SRC_STATS_STATS_H_
