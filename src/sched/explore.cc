#include "src/sched/explore.h"

#include <algorithm>
#include <thread>
#include <vector>

#include "src/common/check.h"
#include "src/htm/htm_runtime.h"
#include "src/htm/thread_state.h"
#include "src/sched/scheduler.h"

#ifdef RWLE_ANALYSIS
#include "src/analysis/txsan.h"
#endif

namespace rwle::sched {
namespace {

// Replays run the recorded branch decisions plus whatever forced progress
// remains; give the round comfortable headroom so a diverged shrink
// candidate (round-robin tail) still terminates under scheduling.
std::uint64_t ReplayStepBudget(std::size_t recorded_steps) {
  return std::max<std::uint64_t>(4096, 8 * static_cast<std::uint64_t>(recorded_steps));
}

}  // namespace

ScheduleTrace RunOneSchedule(const LitmusSpec& spec, Strategy* strategy,
                             std::uint64_t max_steps, std::string* failure) {
  failure->clear();
  // The counter-based preemption model keeps per-thread access counters
  // across schedules, which would leak state from one schedule into the
  // next; the scheduler replaces it entirely, so turn it off for the round.
  HtmRuntime& runtime = HtmRuntime::Global();
  const HtmConfig saved_config = runtime.config();
  if (saved_config.yield_access_period != 0) {
    HtmConfig config = saved_config;
    config.yield_access_period = 0;
    runtime.set_config(config);
  }
#ifdef RWLE_ANALYSIS
  auto& san = txsan::TxSan::Global();
  if (san.enabled()) {
    san.ResetState();  // attribute any report to this schedule
  }
#endif
  // The controller holds a slot across construction and Verify: TxVar
  // accesses need one, and pinning it keeps the workers' slot assignment
  // (handed out in schedule order) stable across schedules.
  const ScopedThreadSlot controller_slot;
  LitmusRun* run = spec.make();

  Scheduler& scheduler = Scheduler::Global();
  Scheduler::RoundOptions round;
  round.threads = spec.threads;
  round.max_steps = max_steps;
  round.record_trace = true;
  scheduler.BeginRound(strategy, round);

  std::vector<std::thread> workers;
  workers.reserve(spec.threads);
  for (std::uint32_t tid = 0; tid < spec.threads; ++tid) {
    workers.emplace_back([run, tid] {
      // Participant first: the slot registration below is then already a
      // scheduled event, so slot order is part of the controlled schedule.
      RoundParticipant participant(tid);
      const ScopedThreadSlot slot;
      run->Thread(tid);
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  ScheduleTrace trace = scheduler.EndRound();
  trace.workload = spec.name;
  trace.threads = spec.threads;

  if (!run->Verify()) {
    *failure = "verify-failed";
  }
#ifdef RWLE_ANALYSIS
  // A checker violation outranks a Verify failure as the signature: it names
  // the broken invariant, which is what replay/shrink match against.
  if (san.enabled() && san.violation_count() > 0) {
    const std::vector<txsan::Report> reports = san.reports();
    if (!reports.empty()) {
      *failure = txsan::InvariantName(reports.front().invariant);
    }
  }
#endif
  trace.failure = *failure;
  runtime.set_config(saved_config);
  return trace;
}

ExploreResult Explore(const LitmusSpec& spec, const ExploreOptions& options) {
  ExploreResult result;
  const std::unique_ptr<Strategy> strategy = MakeStrategy(
      options.strategy, options.seed, options.pct_depth, options.dfs_max_depth);
  RWLE_CHECK(strategy != nullptr && "unknown strategy name");
  for (std::uint64_t index = 0; index < options.schedules; ++index) {
    strategy->BeginSchedule(index);
    std::string failure;
    ScheduleTrace trace = RunOneSchedule(spec, strategy.get(), options.max_steps, &failure);
    trace.seed = options.seed;
    trace.schedule_index = index;
    ++result.schedules_run;
    if (!failure.empty()) {
      result.failed = true;
      result.failure = failure;
      result.failing_trace = std::move(trace);
      return result;
    }
    if (!strategy->NextSchedule()) {
      result.exhausted = true;
      break;
    }
  }
  return result;
}

ScheduleTrace Replay(const LitmusSpec& spec, const ScheduleTrace& trace,
                     std::string* failure) {
  ReplayStrategy strategy(trace.Choices());
  strategy.BeginSchedule(0);
  ScheduleTrace replayed =
      RunOneSchedule(spec, &strategy, ReplayStepBudget(trace.steps.size()), failure);
  replayed.seed = trace.seed;
  replayed.schedule_index = trace.schedule_index;
  return replayed;
}

ScheduleTrace Shrink(const LitmusSpec& spec, const ScheduleTrace& failing,
                     const std::string& failure, std::uint64_t budget) {
  ScheduleTrace best = failing;
  std::uint64_t attempts = 0;
  std::size_t chunk = std::max<std::size_t>(best.steps.size() / 2, 1);
  while (chunk > 0 && attempts < budget && !best.steps.empty()) {
    bool removed_any = false;
    const std::vector<std::uint8_t> base = best.Choices();
    for (std::size_t start = 0; start < base.size() && attempts < budget;) {
      // Candidate = base with [start, start+chunk) removed. Replay diverges
      // where the deletion desynchronizes and falls back to round-robin;
      // we keep the candidate's *re-recorded* trace (always replayable)
      // iff it reproduces the same failure strictly shorter.
      const std::size_t end = std::min(base.size(), start + chunk);
      std::vector<std::uint8_t> candidate(base.begin(), base.begin() + start);
      candidate.insert(candidate.end(), base.begin() + end, base.end());
      ++attempts;
      ReplayStrategy strategy(std::move(candidate));
      strategy.BeginSchedule(0);
      std::string candidate_failure;
      ScheduleTrace recorded = RunOneSchedule(
          spec, &strategy, ReplayStepBudget(base.size()), &candidate_failure);
      if (candidate_failure == failure && recorded.steps.size() < best.steps.size()) {
        recorded.workload = best.workload;
        recorded.seed = best.seed;
        recorded.schedule_index = best.schedule_index;
        best = std::move(recorded);
        removed_any = true;
        break;  // restart the scan against the new, shorter base
      }
      start += chunk;
    }
    if (!removed_any) {
      chunk /= 2;
    } else {
      chunk = std::min(chunk, std::max<std::size_t>(best.steps.size() / 2, 1));
    }
  }
  return best;
}

}  // namespace rwle::sched
