#include "src/analysis/txsan.h"

#include <cstdlib>
#include <cstring>

#include "src/common/analysis_hooks.h"
#include "src/common/thread_registry.h"
#include "src/htm/abort.h"
#include "src/htm/conflict_table.h"
#include "src/htm/htm_runtime.h"
#include "src/htm/tx_context.h"

namespace rwle::txsan {
namespace {

constexpr std::size_t kRingCapacity = 32;
constexpr std::size_t kMaxReports = 64;

void AddTid(std::vector<int>& tids, int tid) {
  for (const int t : tids) {
    if (t == tid) {
      return;
    }
  }
  tids.push_back(tid);
}

std::string CellName(const void* cell) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%p", cell);
  return std::string(buffer);
}

}  // namespace

const char* InvariantName(Invariant invariant) {
  switch (invariant) {
    case Invariant::kSpeculativeVisible:
      return "speculative-store-visible-pre-commit";
    case Invariant::kAtomicCommit:
      return "non-atomic-commit-value";
    case Invariant::kCommitLostStore:
      return "aggregate-commit-dropped-store";
    case Invariant::kAbortedWriteBack:
      return "doomed-transaction-wrote-back";
    case Invariant::kConflictNotDoomed:
      return "conflicting-access-did-not-doom";
    case Invariant::kSuspendedUnmonitored:
      return "suspended-write-set-unmonitored";
    case Invariant::kRotReadSetNotEmpty:
      return "rot-read-set-not-empty";
    case Invariant::kQuiescenceIncomplete:
      return "quiescence-scan-incomplete";
    case Invariant::kCommitWithoutQuiescence:
      return "writer-commit-without-quiescence";
    case Invariant::kDirectAccessDuringTx:
      return "direct-access-to-transactional-cell";
    case Invariant::kDataRace:
      return "unsynchronized-conflicting-access";
    case Invariant::kChainTornPublish:
      return "chain-commit-torn-publish";
  }
  return "unknown-invariant";
}

TxSan& TxSan::Global() {
  static TxSan* instance = new TxSan();  // leaked: outlives all worker threads
  return *instance;
}

void TxSan::Enable(const Options& options, HtmRuntime* runtime) {
  HtmRuntime* target = runtime;
  {
    std::lock_guard<std::mutex> lock(mu_);
    options_ = options;
    if (target == nullptr) {
      target = runtime_;
    }
    runtime_ = target;
    // Release: pairs with the acquire in enabled() so observers see the
    // options/runtime set up above.
    enabled_.store(true, std::memory_order_release);
  }
  if (target == nullptr) {
    target = &HtmRuntime::Global();
    std::lock_guard<std::mutex> lock(mu_);
    runtime_ = target;
  }
  // Release: pairs with the acquire loads in analysis_hooks::Notify* so a
  // visible hook implies the fully-enabled TxSan above.
  analysis_hooks::on_thread_register.store(&TxSan::ThreadRegisterHook,
                                           std::memory_order_release);
  analysis_hooks::on_thread_unregister.store(&TxSan::ThreadUnregisterHook,
                                             std::memory_order_release);  // release: as above
  target->set_analysis_observer(this);
}

void TxSan::Disable() {
  // Release: keeps hook clears ordered after any state the hooks touched;
  // pairs with the Notify* acquire loads.
  analysis_hooks::on_thread_register.store(nullptr, std::memory_order_release);
  analysis_hooks::on_thread_unregister.store(nullptr, std::memory_order_release);  // release: as above
  std::lock_guard<std::mutex> lock(mu_);
  if (runtime_ != nullptr) {
    runtime_->set_analysis_observer(nullptr);
  }
  // Release: pairs with the acquire in enabled().
  enabled_.store(false, std::memory_order_release);
}

void TxSan::ResetState() {
  std::lock_guard<std::mutex> lock(mu_);
  shadow_.clear();
  lifecycle_vc_.clear();
  for (std::size_t t = 0; t < threads_.size(); ++t) {
    const std::uint32_t slot = threads_[t].slot;  // survive the reset: the
    threads_[t] = ThreadState{};                  // thread is still registered
    threads_[t].slot = slot;
    threads_[t].vc.assign(threads_.size(), 0);
    threads_[t].vc[t] = 1;
  }
  next_seq_ = 0;
  events_observed_.store(0, std::memory_order_relaxed);  // relaxed: counter
  // Release: pairs with the acquire in violation_count() readers.
  violation_count_.store(0, std::memory_order_release);
  reports_.clear();
}

std::vector<Report> TxSan::reports() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reports_;
}

bool TxSan::HasViolation(Invariant invariant) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Report& report : reports_) {
    if (report.invariant == invariant) {
      return true;
    }
  }
  return false;
}

void TxSan::PrintSummary(std::FILE* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Relaxed: summary printout under mu_; the counters are advisory here.
  std::fprintf(out, "txsan: %llu events observed, %llu violations\n",
               static_cast<unsigned long long>(events_observed_.load(std::memory_order_relaxed)),
               static_cast<unsigned long long>(violation_count_.load(std::memory_order_relaxed)));
  for (const Report& report : reports_) {
    std::fprintf(out, "txsan:   [%s]\n", InvariantName(report.invariant));
  }
}

// --- Internal machinery (all *Locked helpers require mu_) --------------------

int TxSan::TidLocked() {
  thread_local int tls_tid = -1;
  if (tls_tid < 0) {
    tls_tid = static_cast<int>(threads_.size());
    threads_.emplace_back();
    ThreadState& state = threads_.back();
    state.slot = kInvalidThreadSlot;
    state.vc.assign(threads_.size(), 0);
    state.vc[static_cast<std::size_t>(tls_tid)] = 1;
  }
  return tls_tid;
}

void TxSan::JoinVc(std::vector<std::uint64_t>& into, const std::vector<std::uint64_t>& from) {
  if (into.size() < from.size()) {
    into.resize(from.size(), 0);
  }
  for (std::size_t i = 0; i < from.size(); ++i) {
    if (from[i] > into[i]) {
      into[i] = from[i];
    }
  }
}

bool TxSan::HappensBefore(const VcEpoch& epoch, const std::vector<std::uint64_t>& vc) const {
  if (epoch.tid < 0) {
    return true;
  }
  const std::size_t index = static_cast<std::size_t>(epoch.tid);
  return index < vc.size() && vc[index] >= epoch.clock;
}

void TxSan::PreEventLocked(int tid) {
  ThreadState& state = StateLocked(tid);
  if (state.slot == kInvalidThreadSlot) {
    // Unregistered threads (e.g. main outside a ScopedThreadSlot) exchange
    // clocks with the lifecycle vector at every event. This models the
    // spawn/join edges that flow through main; the cost is that two
    // *unregistered* threads are always mutually ordered (their races are
    // invisible) -- registered worker threads race-detect normally.
    JoinVc(state.vc, lifecycle_vc_);
    JoinVc(lifecycle_vc_, state.vc);
  }
}

void TxSan::TickLocked(int tid) {
  ThreadState& state = StateLocked(tid);
  const std::size_t index = static_cast<std::size_t>(tid);
  if (state.vc.size() <= index) {
    state.vc.resize(index + 1, 0);
  }
  ++state.vc[index];
}

void TxSan::RecordEventLocked(int tid, const char* kind, const void* cell,
                              std::uint64_t value) {
  ThreadState& state = StateLocked(tid);
  Event event{next_seq_++, kind, cell, value};
  if (state.ring.size() < kRingCapacity) {
    state.ring.push_back(event);
  } else {
    state.ring[state.ring_next] = event;
    state.ring_next = (state.ring_next + 1) % kRingCapacity;
  }
}

std::string TxSan::FormatRingLocked(int tid) const {
  const ThreadState& state = threads_[static_cast<std::size_t>(tid)];
  std::string out;
  const std::size_t n = state.ring.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Event& event = state.ring[(state.ring_next + i) % n];
    char line[128];
    std::snprintf(line, sizeof(line), "    #%llu %s cell=%p value=%llu\n",
                  static_cast<unsigned long long>(event.seq), event.kind, event.cell,
                  static_cast<unsigned long long>(event.value));
    out += line;
  }
  return out;
}

void TxSan::ViolationLocked(Invariant invariant, int tid, std::string message) {
  // Acq_rel: the release half publishes the report appended below (under
  // mu_) to violation_count()'s acquire readers outside the lock.
  violation_count_.fetch_add(1, std::memory_order_acq_rel);
  std::string full = "txsan violation [";
  full += InvariantName(invariant);
  full += "] (tid ";
  full += std::to_string(tid);
  full += "): ";
  full += message;
  full += "\n  recent events of tid ";
  full += std::to_string(tid);
  full += ":\n";
  full += FormatRingLocked(tid);
  std::fprintf(stderr, "%s\n", full.c_str());
  std::fflush(stderr);
  if (reports_.size() < kMaxReports) {
    reports_.push_back(Report{invariant, std::move(full)});
  }
  if (options_.abort_on_violation) {
    std::fprintf(stderr, "txsan: aborting on first violation (RWLE_TXSAN mode)\n");
    std::fflush(stderr);
    std::abort();
  }
}

void TxSan::FabricSyncLocked(int tid, CellShadow& shadow) {
  // Fabric accesses are mediated by the simulated coherence protocol, so a
  // fabric access both acquires and (after the event, see release in the
  // callers via this same join -- order under mu_ is immaterial) releases
  // the cell's sync clock. This is what keeps fabric-vs-fabric pairs out of
  // the race detector.
  ThreadState& state = StateLocked(tid);
  JoinVc(state.vc, shadow.sync_vc);
  JoinVc(shadow.sync_vc, state.vc);
}

void TxSan::ValueCheckLocked(int tid, CellShadow& shadow, std::atomic<std::uint64_t>* cell,
                             std::uint64_t observed) {
  if (!shadow.initialized) {
    shadow.initialized = true;
    shadow.value = observed;
    return;
  }
  if (observed == shadow.value) {
    return;
  }
  // The cell's real value diverged from the linearized shadow. If a live
  // foreign transaction is buffering exactly this value for this cell, a
  // speculative store leaked into real memory; otherwise the publish was
  // not all-or-nothing.
  for (std::size_t t = 0; t < threads_.size(); ++t) {
    if (static_cast<int>(t) == tid) {
      continue;
    }
    const ThreadState& other = threads_[t];
    if (other.tx_live) {
      const auto it = other.tx_writes.find(cell);
      if (it != other.tx_writes.end() && !it->second.written_back &&
          it->second.value == observed) {
        shadow.value = observed;  // adopt to avoid cascading reports
        ViolationLocked(Invariant::kSpeculativeVisible, tid,
                        "load of cell " + CellName(cell) + " observed value " +
                            std::to_string(observed) + " buffered by tid " +
                            std::to_string(t) + "'s uncommitted transaction (shadow " +
                            std::to_string(shadow.value) + ")");
        return;
      }
    }
    // Same leak, chopping-layer flavor: a captured chain store is supposed
    // to stay invisible until the chain's publication window flips it to
    // published; observing its value beforehand is a torn chain.
    if (other.chain_live) {
      const auto it = other.chain_writes.find(cell);
      if (it != other.chain_writes.end() && !it->second.published &&
          it->second.value == observed) {
        shadow.value = observed;  // adopt to avoid cascading reports
        ViolationLocked(Invariant::kSpeculativeVisible, tid,
                        "load of cell " + CellName(cell) + " observed value " +
                            std::to_string(observed) + " captured by tid " +
                            std::to_string(t) +
                            "'s unpublished chopped chain (shadow " +
                            std::to_string(shadow.value) + ")");
        return;
      }
    }
  }
  const std::uint64_t expected = shadow.value;
  shadow.value = observed;  // adopt to avoid cascading reports
  ViolationLocked(Invariant::kAtomicCommit, tid,
                  "load of cell " + CellName(cell) + " observed value " +
                      std::to_string(observed) + " but the linearized shadow holds " +
                      std::to_string(expected));
}

void TxSan::RaceCheckReadLocked(int tid, CellShadow& shadow, std::atomic<std::uint64_t>* cell,
                                bool direct) {
  ThreadState& state = StateLocked(tid);
  if (shadow.last_write.tid >= 0 && shadow.last_write.tid != tid &&
      (direct || shadow.last_write.direct) && !HappensBefore(shadow.last_write, state.vc)) {
    ViolationLocked(Invariant::kDataRace, tid,
                    std::string(direct ? "direct" : "fabric") + " read of cell " +
                        CellName(cell) + " races with a prior " +
                        (shadow.last_write.direct ? "direct" : "fabric") +
                        " write by tid " + std::to_string(shadow.last_write.tid));
  }
  const std::uint64_t clock = state.vc[static_cast<std::size_t>(tid)];
  for (VcEpoch& read : shadow.reads) {
    if (read.tid == tid) {
      read.clock = clock;
      read.direct = direct;
      return;
    }
  }
  shadow.reads.push_back(VcEpoch{tid, clock, direct});
}

void TxSan::RaceCheckWriteLocked(int tid, CellShadow& shadow, std::atomic<std::uint64_t>* cell,
                                 bool direct) {
  ThreadState& state = StateLocked(tid);
  if (shadow.last_write.tid >= 0 && shadow.last_write.tid != tid &&
      (direct || shadow.last_write.direct) && !HappensBefore(shadow.last_write, state.vc)) {
    ViolationLocked(Invariant::kDataRace, tid,
                    std::string(direct ? "direct" : "fabric") + " write to cell " +
                        CellName(cell) + " races with a prior " +
                        (shadow.last_write.direct ? "direct" : "fabric") +
                        " write by tid " + std::to_string(shadow.last_write.tid));
  } else {
    for (const VcEpoch& read : shadow.reads) {
      if (read.tid != tid && (direct || read.direct) && !HappensBefore(read, state.vc)) {
        ViolationLocked(Invariant::kDataRace, tid,
                        std::string(direct ? "direct" : "fabric") + " write to cell " +
                            CellName(cell) + " races with a prior " +
                            (read.direct ? "direct" : "fabric") + " read by tid " +
                            std::to_string(read.tid));
        break;
      }
    }
  }
  shadow.last_write =
      VcEpoch{tid, state.vc[static_cast<std::size_t>(tid)], direct};
  shadow.reads.clear();
}

void TxSan::ApplyWriteShadowLocked(int tid, CellShadow& shadow, std::uint64_t value) {
  shadow.initialized = true;
  shadow.value = value;
  ++shadow.version;
  shadow.last_writer = tid;
}

bool TxSan::TxDoomedLocked(const ThreadState& state) const {
  if (runtime_ == nullptr || state.slot == kInvalidThreadSlot) {
    return false;
  }
  return runtime_->ContextAt(state.slot).phase() == TxPhase::kDoomed;
}

void TxSan::DirectMisuseCheckLocked(int tid, CellShadow& shadow,
                                    std::atomic<std::uint64_t>* cell, bool is_store) {
  for (const int writer : shadow.spec_writers) {
    if (writer == tid) {
      continue;
    }
    const ThreadState& other = threads_[static_cast<std::size_t>(writer)];
    if (!other.tx_live || TxDoomedLocked(other)) {
      continue;
    }
    ViolationLocked(Invariant::kDirectAccessDuringTx, tid,
                    std::string(is_store ? "StoreDirect to" : "LoadDirect of") + " cell " +
                        CellName(cell) + " while tid " + std::to_string(writer) +
                        "'s live transaction has it in its write set");
    return;
  }
  if (!is_store) {
    return;
  }
  for (const int reader : shadow.monitor_readers) {
    if (reader == tid) {
      continue;
    }
    const ThreadState& other = threads_[static_cast<std::size_t>(reader)];
    if (!other.tx_live || TxDoomedLocked(other)) {
      continue;
    }
    ViolationLocked(Invariant::kDirectAccessDuringTx, tid,
                    "StoreDirect to cell " + CellName(cell) + " while tid " +
                        std::to_string(reader) +
                        "'s live transaction has it read-monitored");
    return;
  }
}

void TxSan::CheckWriteSetMonitoredLocked(int tid, const char* where) {
  ThreadState& state = StateLocked(tid);
  if (runtime_ == nullptr || state.slot == kInvalidThreadSlot || !state.tx_live ||
      state.tx_writes.empty()) {
    return;
  }
  const TxContext& ctx = runtime_->ContextAt(state.slot);
  const std::uint64_t status = ctx.StatusSnapshot();
  if (StatusPhase(status) == TxPhase::kDoomed || StatusPhase(status) == TxPhase::kIdle) {
    return;  // doomed transactions may legally lose their footprint
  }
  const OwnerToken token = MakeOwnerToken(state.slot, StatusEpoch(status));
  for (const auto& [cell, mirror] : state.tx_writes) {
    if (mirror.untracked) {
      continue;  // limited tracking: the line was never claimed (modeled)
    }
    ConflictTable::LineSlot& line = runtime_->conflict_table().SlotFor(cell);
    if (line.writer().load() != token) {
      ViolationLocked(Invariant::kSuspendedUnmonitored, tid,
                      "at " + std::string(where) + ": write-set cell " + CellName(cell) +
                          " is no longer owned by this live transaction "
                          "(its line lost the owner token)");
      return;
    }
  }
}

void TxSan::EraseTid(std::vector<int>& tids, int tid) {
  for (std::size_t i = 0; i < tids.size(); ++i) {
    if (tids[i] == tid) {
      tids[i] = tids.back();
      tids.pop_back();
      return;
    }
  }
}

void TxSan::ClearFootprintLocked(int tid) {
  ThreadState& state = StateLocked(tid);
  for (const auto& [cell, mirror] : state.tx_writes) {
    const auto it = shadow_.find(cell);
    if (it != shadow_.end()) {
      EraseTid(it->second.spec_writers, tid);
    }
  }
  for (const auto& [cell, version] : state.tx_reads) {
    const auto it = shadow_.find(cell);
    if (it != shadow_.end()) {
      EraseTid(it->second.monitor_readers, tid);
    }
  }
  state.tx_writes.clear();
  state.tx_reads.clear();
  state.tx_live = false;
}

// --- FabricObserver implementation -------------------------------------------

void TxSan::OnTxBegin(std::uint32_t slot, TxKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  events_observed_.fetch_add(1, std::memory_order_relaxed);  // relaxed: counter
  const int tid = TidLocked();
  ThreadState& state = StateLocked(tid);
  if (slot != kInvalidThreadSlot) {
    state.slot = slot;
  }
  PreEventLocked(tid);
  state.tx_live = true;
  state.tx_kind = kind;
  state.tx_writes.clear();
  state.tx_reads.clear();
  state.quiesce_count_at_tx_begin = state.quiesce_end_count;
  RecordEventLocked(tid, kind == TxKind::kRot ? "tx-begin-rot" : "tx-begin-htm", nullptr, 0);
  TickLocked(tid);
}

void TxSan::OnTxCommitting(std::uint32_t slot) {
  std::lock_guard<std::mutex> lock(mu_);
  events_observed_.fetch_add(1, std::memory_order_relaxed);  // relaxed: counter
  const int tid = TidLocked();
  ThreadState& state = StateLocked(tid);
  if (slot != kInvalidThreadSlot) {
    state.slot = slot;
  }
  PreEventLocked(tid);
  RecordEventLocked(tid, "tx-committing", nullptr, 0);

  // ROTs must not track loads (paper §2: rollback-only transactions record
  // stores, never reads).
  if (state.tx_live && state.tx_kind == TxKind::kRot && runtime_ != nullptr &&
      state.slot != kInvalidThreadSlot) {
    const std::size_t read_lines = runtime_->ContextAt(state.slot).read_set_lines();
    if (read_lines != 0) {
      ViolationLocked(Invariant::kRotReadSetNotEmpty, tid,
                      "ROT reached commit with " + std::to_string(read_lines) +
                          " read-set line(s); ROT loads must be untracked");
    }
  }

  // The write set must still be monitored when the commit CAS wins.
  CheckWriteSetMonitoredLocked(tid, "commit");

  // Requester-wins validation: a transaction that reaches COMMITTING must
  // not have had its footprint overwritten -- any conflicting committed
  // store should have doomed it first. The read-set leg is specific to
  // requester-wins: under committer-wins two transactions may legally race
  // to COMMITTING (the commit-time reader scan skips committing readers, so
  // a reader that wins the race serializes *before* the writer), and the
  // mutex-serialized shadow versions cannot distinguish that legal order
  // from a lost doom.
  const bool requester_wins =
      runtime_ == nullptr ||
      runtime_->config().resolution == ResolutionPolicy::kRequesterWins;
  if (requester_wins) {
    for (const auto& [cell, version] : state.tx_reads) {
      const auto it = shadow_.find(cell);
      if (it != shadow_.end() && it->second.version != version &&
          it->second.last_writer != tid) {
        ViolationLocked(Invariant::kConflictNotDoomed, tid,
                        "read-set cell " + CellName(cell) +
                            " was overwritten (shadow version " +
                            std::to_string(it->second.version) + " != " +
                            std::to_string(version) +
                            " at first read) yet the transaction was not doomed");
        break;
      }
    }
  }
  for (const auto& [cell, mirror] : state.tx_writes) {
    if (mirror.untracked) {
      continue;  // limited tracking: conflicts on this line go undetected
    }
    const auto it = shadow_.find(cell);
    if (it != shadow_.end() && it->second.version != mirror.version_at_claim &&
        it->second.last_writer != tid) {
      ViolationLocked(Invariant::kConflictNotDoomed, tid,
                      "write-set cell " + CellName(cell) +
                          " was overwritten (shadow version " +
                          std::to_string(it->second.version) + " != " +
                          std::to_string(mirror.version_at_claim) +
                          " at claim) yet the transaction was not doomed");
      break;
    }
  }
  TickLocked(tid);
}

void TxSan::OnTxCommitted(std::uint32_t slot, TxKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  events_observed_.fetch_add(1, std::memory_order_relaxed);  // relaxed: counter
  const int tid = TidLocked();
  ThreadState& state = StateLocked(tid);
  if (slot != kInvalidThreadSlot) {
    state.slot = slot;
  }
  PreEventLocked(tid);
  RecordEventLocked(tid, kind == TxKind::kRot ? "tx-commit-rot" : "tx-commit-htm", nullptr, 0);

  // Commit completeness: every buffered store must have been written back.
  for (const auto& [cell, mirror] : state.tx_writes) {
    if (!mirror.written_back) {
      ViolationLocked(Invariant::kCommitLostStore, tid,
                      "commit completed but buffered store of value " +
                          std::to_string(mirror.value) + " to cell " + CellName(cell) +
                          " was never written back");
      break;
    }
  }

  // RW-LE contract: a writer that commits stores inside an elided write
  // section must have run a quiescence scan after beginning the attempt.
  if (state.elided_write_depth > 0 && !state.tx_writes.empty() &&
      state.quiesce_end_count == state.quiesce_count_at_tx_begin) {
    ViolationLocked(Invariant::kCommitWithoutQuiescence, tid,
                    "elided writer committed " + std::to_string(state.tx_writes.size()) +
                        " store(s) without draining readers "
                        "(no quiescence scan since TxBegin)");
  }

  ClearFootprintLocked(tid);
  TickLocked(tid);
}

void TxSan::OnTxAborted(std::uint32_t slot, TxKind kind, AbortCause cause) {
  std::lock_guard<std::mutex> lock(mu_);
  events_observed_.fetch_add(1, std::memory_order_relaxed);  // relaxed: counter
  const int tid = TidLocked();
  ThreadState& state = StateLocked(tid);
  if (slot != kInvalidThreadSlot) {
    state.slot = slot;
  }
  PreEventLocked(tid);
  RecordEventLocked(tid, kind == TxKind::kRot ? "tx-abort-rot" : "tx-abort-htm", nullptr,
                    static_cast<std::uint64_t>(cause));

  // Abort purity: a doomed transaction's buffered stores must never reach
  // real memory.
  for (const auto& [cell, mirror] : state.tx_writes) {
    auto it = shadow_.find(cell);
    if (it == shadow_.end() || !it->second.initialized) {
      continue;
    }
    const std::uint64_t raw = cell->load();
    if (raw != it->second.value && raw == mirror.value) {
      it->second.value = raw;  // adopt to avoid cascading reports
      ViolationLocked(Invariant::kAbortedWriteBack, tid,
                      "aborted (" + std::string(AbortCauseName(cause)) +
                          ") transaction's buffered value " + std::to_string(mirror.value) +
                          " is visible in cell " + CellName(cell));
      break;
    }
  }

  ClearFootprintLocked(tid);
  TickLocked(tid);
}

void TxSan::OnTxSuspend(std::uint32_t slot) {
  std::lock_guard<std::mutex> lock(mu_);
  events_observed_.fetch_add(1, std::memory_order_relaxed);  // relaxed: counter
  const int tid = TidLocked();
  ThreadState& state = StateLocked(tid);
  if (slot != kInvalidThreadSlot) {
    state.slot = slot;
  }
  PreEventLocked(tid);
  RecordEventLocked(tid, "tx-suspend", nullptr, 0);
  TickLocked(tid);
}

void TxSan::OnTxResume(std::uint32_t slot) {
  std::lock_guard<std::mutex> lock(mu_);
  events_observed_.fetch_add(1, std::memory_order_relaxed);  // relaxed: counter
  const int tid = TidLocked();
  ThreadState& state = StateLocked(tid);
  if (slot != kInvalidThreadSlot) {
    state.slot = slot;
  }
  PreEventLocked(tid);
  RecordEventLocked(tid, "tx-resume", nullptr, 0);
  // The suspended footprint must still be monitored when execution resumes.
  CheckWriteSetMonitoredLocked(tid, "resume");
  TickLocked(tid);
}

void TxSan::OnSpeculativeStore(std::uint32_t slot, std::atomic<std::uint64_t>* cell,
                               std::uint64_t value, bool tracked) {
  std::lock_guard<std::mutex> lock(mu_);
  events_observed_.fetch_add(1, std::memory_order_relaxed);  // relaxed: counter
  const int tid = TidLocked();
  ThreadState& state = StateLocked(tid);
  if (slot != kInvalidThreadSlot) {
    state.slot = slot;
  }
  PreEventLocked(tid);
  CellShadow& shadow = shadow_[cell];
  const auto [it, inserted] =
      state.tx_writes.try_emplace(cell, TxWriteMirror{value, shadow.version, false, !tracked});
  if (!inserted) {
    it->second.value = value;
    it->second.written_back = false;
  } else {
    it->second.untracked = !tracked;
    AddTid(shadow.spec_writers, tid);
  }
  RecordEventLocked(tid, "spec-store", cell, value);
  TickLocked(tid);
}

void TxSan::OnBufferedLoad(std::uint32_t slot, std::atomic<std::uint64_t>* cell,
                           std::uint64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  events_observed_.fetch_add(1, std::memory_order_relaxed);  // relaxed: counter
  const int tid = TidLocked();
  ThreadState& state = StateLocked(tid);
  if (slot != kInvalidThreadSlot) {
    state.slot = slot;
  }
  PreEventLocked(tid);
  RecordEventLocked(tid, "buffered-load", cell, value);
  TickLocked(tid);
}

std::uint64_t TxSan::ObservedLoad(FabricAccess access, std::uint32_t slot,
                                  std::atomic<std::uint64_t>* cell) {
  std::lock_guard<std::mutex> lock(mu_);
  events_observed_.fetch_add(1, std::memory_order_relaxed);  // relaxed: counter
  const int tid = TidLocked();
  ThreadState& state = StateLocked(tid);
  if (slot != kInvalidThreadSlot) {
    state.slot = slot;
  }
  PreEventLocked(tid);
  CellShadow& shadow = shadow_[cell];
  const bool direct = access == FabricAccess::kDirect;
  if (!direct) {
    FabricSyncLocked(tid, shadow);
  }
  const std::uint64_t observed = cell->load();
  RecordEventLocked(tid, direct ? "direct-load" : "load", cell, observed);
  ValueCheckLocked(tid, shadow, cell, observed);
  if (direct) {
    DirectMisuseCheckLocked(tid, shadow, cell, /*is_store=*/false);
  }
  RaceCheckReadLocked(tid, shadow, cell, direct);
  if (access == FabricAccess::kTxHtm && state.tx_live) {
    const auto [it, inserted] = state.tx_reads.try_emplace(cell, shadow.version);
    if (inserted) {
      AddTid(shadow.monitor_readers, tid);
    }
  }
  TickLocked(tid);
  if (!direct) {
    FabricSyncLocked(tid, shadow);
  }
  return observed;
}

void TxSan::ObservedStore(FabricAccess access, std::uint32_t slot,
                          std::atomic<std::uint64_t>* cell, std::uint64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  events_observed_.fetch_add(1, std::memory_order_relaxed);  // relaxed: counter
  const int tid = TidLocked();
  ThreadState& state = StateLocked(tid);
  if (slot != kInvalidThreadSlot) {
    state.slot = slot;
  }
  PreEventLocked(tid);
  CellShadow& shadow = shadow_[cell];
  const bool direct = access == FabricAccess::kDirect;
  if (!direct) {
    FabricSyncLocked(tid, shadow);
  }
  RecordEventLocked(tid, direct ? "direct-store" : "store", cell, value);
  if (direct) {
    DirectMisuseCheckLocked(tid, shadow, cell, /*is_store=*/true);
  }
  RaceCheckWriteLocked(tid, shadow, cell, direct);
  cell->store(value);
  ApplyWriteShadowLocked(tid, shadow, value);
  // A chain owner's non-transactional store of a captured value is the
  // publication the OnChainEnd completeness check waits for.
  if (state.chain_live && access == FabricAccess::kNonTx) {
    const auto it = state.chain_writes.find(cell);
    if (it != state.chain_writes.end() && it->second.value == value) {
      it->second.published = true;
    }
  }
  TickLocked(tid);
  if (!direct) {
    FabricSyncLocked(tid, shadow);
  }
}

bool TxSan::ObservedCas(std::uint32_t slot, std::atomic<std::uint64_t>* cell,
                        std::uint64_t expected, std::uint64_t desired) {
  std::lock_guard<std::mutex> lock(mu_);
  events_observed_.fetch_add(1, std::memory_order_relaxed);  // relaxed: counter
  const int tid = TidLocked();
  ThreadState& state = StateLocked(tid);
  if (slot != kInvalidThreadSlot) {
    state.slot = slot;
  }
  PreEventLocked(tid);
  CellShadow& shadow = shadow_[cell];
  FabricSyncLocked(tid, shadow);
  std::uint64_t current = expected;
  const bool success = cell->compare_exchange_strong(current, desired);
  const std::uint64_t observed = success ? expected : current;
  RecordEventLocked(tid, success ? "cas" : "cas-fail", cell, observed);
  ValueCheckLocked(tid, shadow, cell, observed);
  RaceCheckReadLocked(tid, shadow, cell, /*direct=*/false);
  if (success) {
    RaceCheckWriteLocked(tid, shadow, cell, /*direct=*/false);
    ApplyWriteShadowLocked(tid, shadow, desired);
  }
  TickLocked(tid);
  FabricSyncLocked(tid, shadow);
  return success;
}

void TxSan::ObservedWriteBack(std::uint32_t slot, std::atomic<std::uint64_t>* cell,
                              std::uint64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  events_observed_.fetch_add(1, std::memory_order_relaxed);  // relaxed: counter
  const int tid = TidLocked();
  ThreadState& state = StateLocked(tid);
  if (slot != kInvalidThreadSlot) {
    state.slot = slot;
  }
  PreEventLocked(tid);
  CellShadow& shadow = shadow_[cell];
  FabricSyncLocked(tid, shadow);
  RecordEventLocked(tid, "write-back", cell, value);
  RaceCheckWriteLocked(tid, shadow, cell, /*direct=*/false);
  cell->store(value);
  ApplyWriteShadowLocked(tid, shadow, value);
  const auto it = state.tx_writes.find(cell);
  if (it != state.tx_writes.end()) {
    it->second.written_back = true;
  }
  TickLocked(tid);
  FabricSyncLocked(tid, shadow);
}

void TxSan::OnCellInit(std::atomic<std::uint64_t>* cell, std::uint64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  events_observed_.fetch_add(1, std::memory_order_relaxed);  // relaxed: counter
  // A fresh TxVar occupies this address (possibly placement-new over a
  // reused arena): drop every trace of the previous occupant.
  CellShadow& shadow = shadow_[cell];
  shadow = CellShadow{};
  shadow.initialized = true;
  shadow.value = value;
}

TxSan::ThreadState::ReaderSection& TxSan::SectionLocked(ThreadState& state,
                                                        const void* clocks) {
  for (ThreadState::ReaderSection& section : state.read_sections) {
    if (section.clocks == clocks) {
      return section;
    }
  }
  state.read_sections.push_back(ThreadState::ReaderSection{clocks, 0, false});
  return state.read_sections.back();
}

void TxSan::OnReaderEnter(std::uint32_t slot, const void* clocks) {
  std::lock_guard<std::mutex> lock(mu_);
  events_observed_.fetch_add(1, std::memory_order_relaxed);  // relaxed: counter
  const int tid = TidLocked();
  ThreadState& state = StateLocked(tid);
  if (slot != kInvalidThreadSlot) {
    state.slot = slot;
  }
  PreEventLocked(tid);
  ThreadState::ReaderSection& section = SectionLocked(state, clocks);
  section.in_section = true;
  ++section.gen;
  RecordEventLocked(tid, "reader-enter", clocks, section.gen);
  TickLocked(tid);
}

void TxSan::OnReaderExit(std::uint32_t slot, const void* clocks) {
  std::lock_guard<std::mutex> lock(mu_);
  events_observed_.fetch_add(1, std::memory_order_relaxed);  // relaxed: counter
  const int tid = TidLocked();
  ThreadState& state = StateLocked(tid);
  if (slot != kInvalidThreadSlot) {
    state.slot = slot;
  }
  PreEventLocked(tid);
  ThreadState::ReaderSection& section = SectionLocked(state, clocks);
  section.in_section = false;
  RecordEventLocked(tid, "reader-exit", clocks, section.gen);
  TickLocked(tid);
}

void TxSan::OnQuiescenceBegin(std::uint32_t slot, const void* clocks) {
  std::lock_guard<std::mutex> lock(mu_);
  events_observed_.fetch_add(1, std::memory_order_relaxed);  // relaxed: counter
  const int tid = TidLocked();
  ThreadState& state = StateLocked(tid);
  if (slot != kInvalidThreadSlot) {
    state.slot = slot;
  }
  PreEventLocked(tid);
  state.quiesce_snapshot.clear();
  for (std::size_t t = 0; t < threads_.size(); ++t) {
    if (static_cast<int>(t) == tid) {
      continue;
    }
    for (const ThreadState::ReaderSection& section : threads_[t].read_sections) {
      if (section.clocks == clocks && section.in_section) {
        state.quiesce_snapshot.emplace_back(static_cast<int>(t), section.gen);
      }
    }
  }
  RecordEventLocked(tid, "quiesce-begin", clocks, state.quiesce_snapshot.size());
  TickLocked(tid);
}

void TxSan::OnQuiescenceEnd(std::uint32_t slot, const void* clocks) {
  std::lock_guard<std::mutex> lock(mu_);
  events_observed_.fetch_add(1, std::memory_order_relaxed);  // relaxed: counter
  const int tid = TidLocked();
  ThreadState& state = StateLocked(tid);
  if (slot != kInvalidThreadSlot) {
    state.slot = slot;
  }
  PreEventLocked(tid);
  // Every reader of *this* clocks instance that was inside its section when
  // the scan began must have left that section (generation moved or section
  // exited) by scan end.
  for (const auto& [reader_tid, gen] : state.quiesce_snapshot) {
    ThreadState& reader = threads_[static_cast<std::size_t>(reader_tid)];
    const ThreadState::ReaderSection& section = SectionLocked(reader, clocks);
    if (section.in_section && section.gen == gen) {
      ViolationLocked(Invariant::kQuiescenceIncomplete, tid,
                      "quiescence scan completed while tid " + std::to_string(reader_tid) +
                          " is still inside the read section it was in "
                          "when the scan began");
      break;
    }
  }
  state.quiesce_snapshot.clear();
  ++state.quiesce_end_count;
  RecordEventLocked(tid, "quiesce-end", clocks, state.quiesce_end_count);
  TickLocked(tid);
}

void TxSan::OnElidedWriteBegin(std::uint32_t slot) {
  std::lock_guard<std::mutex> lock(mu_);
  events_observed_.fetch_add(1, std::memory_order_relaxed);  // relaxed: counter
  const int tid = TidLocked();
  ThreadState& state = StateLocked(tid);
  if (slot != kInvalidThreadSlot) {
    state.slot = slot;
  }
  PreEventLocked(tid);
  ++state.elided_write_depth;
  RecordEventLocked(tid, "elided-write-begin", nullptr, state.elided_write_depth);
  TickLocked(tid);
}

void TxSan::OnElidedWriteEnd(std::uint32_t slot) {
  std::lock_guard<std::mutex> lock(mu_);
  events_observed_.fetch_add(1, std::memory_order_relaxed);  // relaxed: counter
  const int tid = TidLocked();
  ThreadState& state = StateLocked(tid);
  if (slot != kInvalidThreadSlot) {
    state.slot = slot;
  }
  PreEventLocked(tid);
  if (state.elided_write_depth > 0) {
    --state.elided_write_depth;
  }
  RecordEventLocked(tid, "elided-write-end", nullptr, state.elided_write_depth);
  TickLocked(tid);
}

void TxSan::OnChainBegin(std::uint32_t slot) {
  std::lock_guard<std::mutex> lock(mu_);
  events_observed_.fetch_add(1, std::memory_order_relaxed);  // relaxed: counter
  const int tid = TidLocked();
  ThreadState& state = StateLocked(tid);
  if (slot != kInvalidThreadSlot) {
    state.slot = slot;
  }
  PreEventLocked(tid);
  state.chain_live = true;
  state.chain_writes.clear();
  state.quiesce_count_at_chain_begin = state.quiesce_end_count;
  RecordEventLocked(tid, "chain-begin", nullptr, 0);
  TickLocked(tid);
}

void TxSan::OnChainCapture(std::uint32_t slot) {
  std::lock_guard<std::mutex> lock(mu_);
  events_observed_.fetch_add(1, std::memory_order_relaxed);  // relaxed: counter
  const int tid = TidLocked();
  ThreadState& state = StateLocked(tid);
  if (slot != kInvalidThreadSlot) {
    state.slot = slot;
  }
  PreEventLocked(tid);
  RecordEventLocked(tid, "chain-capture", nullptr, state.tx_writes.size());

  // A chained piece commit moves the write buffer into the chain carryover
  // instead of publishing it; nothing may have reached real memory yet. A
  // captured value already visible in its cell is a leaked piece store.
  for (const auto& [cell, mirror] : state.tx_writes) {
    auto it = shadow_.find(cell);
    if (it == shadow_.end() || !it->second.initialized) {
      continue;
    }
    const std::uint64_t raw = cell->load();
    if (raw != it->second.value && raw == mirror.value) {
      it->second.value = raw;  // adopt to avoid cascading reports
      ViolationLocked(Invariant::kSpeculativeVisible, tid,
                      "chained piece commit captured value " + std::to_string(mirror.value) +
                          " for cell " + CellName(cell) +
                          " but the value is already visible in real memory");
      break;
    }
  }

  // Carry the buffered stores over into the chain mirror (unpublished), then
  // drop the per-transaction footprint exactly like a commit would -- the
  // piece's lines are released even though the values stay invisible.
  for (const auto& [cell, mirror] : state.tx_writes) {
    state.chain_writes[cell] = ThreadState::ChainWriteMirror{mirror.value, false};
  }
  ClearFootprintLocked(tid);
  TickLocked(tid);
}

void TxSan::OnChainEnd(std::uint32_t slot, bool committed) {
  std::lock_guard<std::mutex> lock(mu_);
  events_observed_.fetch_add(1, std::memory_order_relaxed);  // relaxed: counter
  const int tid = TidLocked();
  ThreadState& state = StateLocked(tid);
  if (slot != kInvalidThreadSlot) {
    state.slot = slot;
  }
  PreEventLocked(tid);
  RecordEventLocked(tid, committed ? "chain-commit" : "chain-unwind", nullptr,
                    state.chain_writes.size());

  if (committed) {
    // Chain atomicity: the publication window must have stored every
    // captured entry back to real memory before the chain ends.
    for (const auto& [cell, mirror] : state.chain_writes) {
      if (!mirror.published) {
        ViolationLocked(Invariant::kChainTornPublish, tid,
                        "chain committed but captured store of value " +
                            std::to_string(mirror.value) + " to cell " + CellName(cell) +
                            " was never published");
        break;
      }
    }
    // Amortized RW-LE contract: one quiescence scan per chain (not per
    // piece) must still drain in-flight readers before publication.
    if (!state.chain_writes.empty() &&
        state.quiesce_end_count == state.quiesce_count_at_chain_begin) {
      ViolationLocked(Invariant::kCommitWithoutQuiescence, tid,
                      "chain committed " + std::to_string(state.chain_writes.size()) +
                          " captured store(s) without draining readers "
                          "(no quiescence scan since chain begin)");
    }
  }
  state.chain_writes.clear();
  state.chain_live = false;
  TickLocked(tid);
}

// --- Thread-registry trampolines ---------------------------------------------

void TxSan::ThreadRegisterHook(std::uint32_t slot) {
  TxSan& self = Global();
  std::lock_guard<std::mutex> lock(self.mu_);
  const int tid = self.TidLocked();
  ThreadState& state = self.StateLocked(tid);
  state.slot = slot;
  // Registration happens-after everything the spawning path published.
  self.JoinVc(state.vc, self.lifecycle_vc_);
  self.TickLocked(tid);
}

void TxSan::ThreadUnregisterHook(std::uint32_t slot) {
  (void)slot;
  TxSan& self = Global();
  std::lock_guard<std::mutex> lock(self.mu_);
  const int tid = self.TidLocked();
  ThreadState& state = self.StateLocked(tid);
  // Unregistration happens-before whatever joins this thread.
  self.JoinVc(self.lifecycle_vc_, state.vc);
  state.slot = kInvalidThreadSlot;
  self.TickLocked(tid);
}

void InitFromEnv(HtmRuntime* runtime) {
  // Called once from HtmRuntime's constructor, before any worker thread can
  // exist, so the non-reentrant getenv is safe here.
  const char* env = std::getenv("RWLE_TXSAN");  // NOLINT(concurrency-mt-unsafe)
  if (env == nullptr || env[0] == '\0' || env[0] == '0') {
    return;
  }
  TxSan::Options options;
  options.abort_on_violation = true;
  TxSan::Global().Enable(options, runtime);
}

}  // namespace rwle::txsan
