// End-to-end benchmark driver: runs one named workload against rwle-opt
// locks through the public API (MakeLock, ElidableLock::Read/Write,
// TxHashMap, PagingModel, StatsRegistry, CostMeter, LatencyRegistry) and
// prints every metric with its unit, then one JSON result line.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// A run is a sequence of trials; each trial builds fresh tables and runs
//   1. a closed-loop segment for a fixed host-time slice,
//   2. (open-loop workloads) an open-loop segment at the workload's fixed
//      offered rate, and
//   3. an open-loop sweep up the workload's ladder of offered rates, until
//      the first rate that misses the service level.
// Every segment warms up before its measured region, checks each
// operation's output, and audits the table afterwards. Metrics are medians
// over trials. --trace 1 alternates untraced and traced trials and reports
// the per-layer metrics (README.md has the metric -> layer -> workload map).
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "e2e_bench/histogram.h"
#include "e2e_bench/spans.h"
#include "e2e_bench/table.h"
#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/common/thread_registry.h"
#include "src/htm/htm_runtime.h"
#include "src/memory/paging_model.h"
#include "src/stats/cost_meter.h"
#include "src/stats/stats.h"
#include "src/trace/latency_registry.h"

namespace rwle::e2e {
namespace {

constexpr std::uint32_t kMaxWorkers = 4;
// --trace 0 reports medians over kUntracedTrials trials: the least disturbed
// of at most kMaxUntracedTrials, run until that many were undisturbed. A
// trial is undisturbed when its workers held a CPU for at least
// kUndisturbedCpuShare of the time they were measuring; the rest went to
// other tenants of the host (hypervisor steal, other processes), and a
// worker descheduled mid-operation stalls the others and leaks into
// modeled time through the lock-word wait loops.
constexpr int kUntracedTrials = 11;
constexpr int kMaxUntracedTrials = 15;
constexpr double kUndisturbedCpuShare = 0.97;
constexpr int kTracedTrialPairs = 4;  // --trace 1: untraced, traced, untraced, ...
// Share of --seconds spent in the closed-loop segments; the open-loop
// segments are fixed request counts sized to take about the same.
constexpr double kClosedShare = 0.5;
constexpr std::uint64_t kWarmupOpsPerThread = 2000;
// A ladder rung counts as sustained while completions keep up with
// arrivals: the last request arrives no earlier than this share of the way
// to the last completion (no growing backlog).
constexpr double kMinAchievedShare = 0.95;
constexpr std::size_t kRetainedSpansPerThread = 1024;
constexpr std::uint32_t kSetupSpanThread = 1000;  // label of the main thread's lane

struct WorkloadSpec {
  const char* name;
  TableShape shape;
  double write_ratio;
  bool paging;
  // Open-loop workloads take their sojourn times from a segment at a fixed
  // offered rate and hold the ladder to a p99 sojourn limit. Closed-loop
  // workloads take sojourn times from the closed loop (each request is due
  // when its client issues it) and hold the ladder to throughput alone: no
  // growing backlog.
  bool open_loop;
  // Offered rates are absolute constants in ops per modeled second, never
  // calibrated per run, so a faster program is tested at the same load.
  double fixed_rate_ops;           // open loop only
  std::uint64_t fixed_requests;    // open loop only
  std::vector<double> ladder_ops;  // ascending
  std::uint64_t rung_requests;
  std::uint64_t slo_p99_ns;  // p99 sojourn limit, modeled ns; 0 = none
};

// Why each shape was chosen is in README.md.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = {
      {"read_mostly",
       {/*buckets=*/8192, /*stable_per_bucket=*/24, /*churn_keys=*/8192, /*stripes=*/1,
        /*zipf_theta=*/0.0},
       /*write_ratio=*/0.02, /*paging=*/true, /*open_loop=*/false,
       /*fixed_rate_ops=*/0, /*fixed_requests=*/0,
       /*ladder_ops=*/{16e6, 18e6, 19e6, 20e6, 21e6, 22e6, 23e6, 24e6, 26e6, 28e6, 32e6},
       /*rung_requests=*/120000, /*slo_p99_ns=*/0},
      {"write_contended",
       {/*buckets=*/1, /*stable_per_bucket=*/200, /*churn_keys=*/32, /*stripes=*/1,
        /*zipf_theta=*/0.0},
       /*write_ratio=*/0.5, /*paging=*/false, /*open_loop=*/false,
       /*fixed_rate_ops=*/0, /*fixed_requests=*/0,
       /*ladder_ops=*/{8e6, 9e6, 10e6, 10.5e6, 11e6, 11.5e6, 12e6, 12.5e6, 13e6, 14e6, 16e6},
       /*rung_requests=*/16000, /*slo_p99_ns=*/0},
      {"service_striped",
       {/*buckets=*/4096, /*stable_per_bucket=*/8, /*churn_keys=*/4096, /*stripes=*/64,
        /*zipf_theta=*/0.99},
       /*write_ratio=*/0.10, /*paging=*/false, /*open_loop=*/true,
       /*fixed_rate_ops=*/120e6, /*fixed_requests=*/1500000,
       /*ladder_ops=*/{80e6, 100e6, 120e6, 140e6, 150e6, 160e6, 180e6, 200e6},
       /*rung_requests=*/300000, /*slo_p99_ns=*/1000},
  };
  return workloads;
}

// ---- Process memory ------------------------------------------------------

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ThreadCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

// ---- Segments --------------------------------------------------------------

struct SegmentPlan {
  bool closed = true;
  double seconds = 0.0;        // closed loop: host-time slice
  double rate_ops = 0.0;       // open loop: offered rate
  std::uint64_t requests = 0;  // open loop: total arrivals
  std::uint64_t seed = 0;
  bool traced = false;
};

// One worker's private measurement state, merged after join.
struct WorkerState {
  std::uint64_t ops = 0;  // measured ops
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::int64_t size_delta = 0;
  FineHistogram read_cycles;
  FineHistogram write_cycles;
  FineHistogram sojourn;
  FineHistogram write_by_path[kCommitPathCount];
  std::uint64_t queue_delay_sum = 0;
  std::uint64_t queue_delay_max = 0;
  std::uint64_t last_arrival_cycles = 0;
  std::uint64_t end_cycles = 0;
  double cpu_s = 0.0;   // on-CPU time while measuring
  double busy_s = 0.0;  // wall time while measuring
  std::unique_ptr<SpanBuffer> spans;
};

struct SegmentResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;   // summed over workers
  double busy_s = 0.0;  // summed over workers
  std::uint64_t ops = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  CostMeter::Totals cost;
  ThreadStats stats;
  std::uint64_t page_faults = 0;
  FineHistogram read_cycles;
  FineHistogram write_cycles;
  FineHistogram sojourn;
  FineHistogram write_by_path[kCommitPathCount];
  double queue_delay_mean_ns = 0.0;
  double queue_delay_max_ns = 0.0;
  // Open loop: completions per modeled second, and the share of the
  // horizon by which the last request had arrived (1 = completions kept up;
  // below 1 = a backlog was still draining).
  double achieved_ops = 0.0;
  double achieved_over_offered = 0.0;
  SpanTotals spans[kSpanNameCount];
  std::vector<std::vector<Span>> retained;  // per thread, traced only
  std::string error;                        // failed cross-check

  // At most 1 while completions keep up with arrivals and the p99 sojourn
  // meets the limit (if any); each term is 1 exactly at its threshold.
  double LoadMargin(std::uint64_t slo_p99_ns) const {
    const double backlog = (1.0 - achieved_over_offered) / (1.0 - kMinAchievedShare);
    if (slo_p99_ns == 0) {
      return backlog;
    }
    return std::max(backlog, sojourn.Percentile(99.0) / static_cast<double>(slo_p99_ns));
  }
};

// What building one fixture cost, in host seconds.
struct SetupCost {
  double setup_s = 0.0;      // everything before the first op
  double construct_s = 0.0;  // the MakeLock calls
  double populate_s = 0.0;   // TxHashMap::Populate
};

// A freshly built table with its locks and (optionally) paging model.
struct Fixture {
  std::unique_ptr<Table> table;
  std::unique_ptr<PagingModel> paging;
  std::int64_t size_delta = 0;  // successful inserts - removes so far
  SetupCost cost;
  double rss_mb_per_lock = 0.0;  // when asked for: resident-set growth per MakeLock
  std::vector<Span> setup_spans;
};

// Builds a fixture. `measure_rss` reads the resident set around the MakeLock
// calls; only meaningful on the process's first set-up, before freed lock
// memory can be reused.
Fixture BuildFixture(const WorkloadSpec& spec, bool traced, bool measure_rss = false) {
  Fixture fixture;
  std::unique_ptr<SpanBuffer> spans =
      traced ? std::make_unique<SpanBuffer>(kSetupSpanThread, kRetainedSpansPerThread)
             : nullptr;
  Stopwatch setup_clock;
  {
    const ScopedSpan setup_span(spans.get(), SpanName::kSetup);
    const double rss_before = measure_rss ? CurrentRssMb() : 0.0;
    std::vector<std::unique_ptr<ElidableLock>> locks;
    {
      const ScopedSpan span(spans.get(), SpanName::kLocksConstruct);
      Stopwatch clock;
      locks = Table::MakeLocks(spec.shape.stripes);
      fixture.cost.construct_s = clock.ElapsedSeconds();
    }
    if (measure_rss) {
      fixture.rss_mb_per_lock = (CurrentRssMb() - rss_before) / spec.shape.stripes;
    }
    fixture.table = std::make_unique<Table>(spec.shape, std::move(locks));
    {
      const ScopedSpan span(spans.get(), SpanName::kWorkloadsPopulate);
      Stopwatch clock;
      fixture.table->Populate();
      fixture.cost.populate_s = clock.ElapsedSeconds();
    }
    if (spec.paging) {
      fixture.paging = std::make_unique<PagingModel>(PagingModel::Config{});
    }
  }
  fixture.cost.setup_s = setup_clock.ElapsedSeconds();
  if (spans != nullptr) {
    fixture.setup_spans = spans->retained();
  }
  return fixture;
}

// Audits the quiescent fixture; returns the problem, empty when clean.
std::string AuditFixture(const Fixture& fixture, std::uint32_t threads) {
  const Table& table = *fixture.table;
  const auto expected =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(table.stable_keys()) +
                                 fixture.size_delta);
  const AuditResult audit =
      AuditTable(table.map(), table.stable_keys(), table.churn_keys(), expected, threads);
  return audit.ok ? std::string() : "table audit: " + audit.problem;
}

// Resets the per-segment meters at the start line, while every worker is
// parked on the barrier.
struct StartLine {
  Fixture* fixture;
  std::uint64_t* faults_before;
  void operator()() noexcept {
    CostMeter::Global().Reset();
    for (const auto& lock : fixture->table->locks()) {
      lock->stats().Reset();
      lock->latency().Reset();
    }
    *faults_before = fixture->paging != nullptr ? fixture->paging->TotalFaults() : 0;
  }
};

// Runs one measured segment on `fixture`: every worker warms up, then all
// start together; the closed loop runs until the timekeeper stops it, the
// open loop until each server has served its share of arrivals.
SegmentResult Measure(const WorkloadSpec& spec, Fixture& fixture, const SegmentPlan& plan,
                      std::uint32_t threads) {
  SegmentResult result;
  CostMeter& meter = CostMeter::Global();
  Table& table = *fixture.table;
  HtmRuntime::Global().set_interrupt_source(fixture.paging.get());
  meter.set_contention_factor(threads);
  std::uint64_t faults_before = 0;
  std::barrier start_line(static_cast<std::ptrdiff_t>(threads) + 1,
                          StartLine{&fixture, &faults_before});
  std::atomic<bool> stop{false};
  std::vector<WorkerState> workers(threads);

  auto work = [&](std::uint32_t t) {
    WorkerState& me = workers[t];
    const ScopedThreadSlot slot;
    Rng rng(DeriveThreadSeed(plan.seed, t));
    auto plain = [](ElidableLock& lock, bool is_write, auto&& body) {
      if (is_write) {
        lock.Write(body);
      } else {
        lock.Read(body);
      }
    };
    auto account = [&](const OpOutcome& outcome) {
      ++me.attempted;
      me.failed += outcome.ok ? 0 : 1;
      me.size_delta += outcome.size_delta;
    };
    // Warm-up: lazy per-slot state (latency shards, TLB model entries) and
    // first-touch page faults land here, before the meters are reset.
    for (std::uint64_t i = 0; i < kWarmupOpsPerThread; ++i) {
      account(table.Op(rng, rng.NextBool(spec.write_ratio), plain));
    }
    if (plan.traced) {
      me.spans = std::make_unique<SpanBuffer>(t, kRetainedSpansPerThread);
    }
    SpanBuffer* spans = me.spans.get();
    // Times each lock call in modeled cycles (the measure the lock's
    // LatencyRegistry records) and, when traced, wraps it and every body
    // invocation in spans and attributes writes to their commit path.
    auto measured = [&](ElidableLock& lock, bool is_write, auto&& body) {
      const std::uint64_t before = meter.SlotCycles(slot.slot());
      if (!is_write) {
        const ScopedSpan span(spans, SpanName::kLocksRead);
        lock.Read([&] {
          const ScopedSpan body_span(spans, SpanName::kWorkloadsBody);
          body();
        });
        me.read_cycles.Record(meter.SlotCycles(slot.slot()) - before);
        return;
      }
      std::uint64_t commits_before[kCommitPathCount] = {};
      if (spans != nullptr) {
        std::memcpy(commits_before, lock.stats().Local().commits, sizeof(commits_before));
      }
      {
        const ScopedSpan span(spans, SpanName::kLocksWrite);
        lock.Write([&] {
          const ScopedSpan body_span(spans, SpanName::kWorkloadsBody);
          body();
        });
      }
      const std::uint64_t cycles = meter.SlotCycles(slot.slot()) - before;
      me.write_cycles.Record(cycles);
      if (spans != nullptr) {
        const std::uint64_t* after = lock.stats().Local().commits;
        for (int path = 0; path < kCommitPathCount; ++path) {
          if (after[path] != commits_before[path]) {
            me.write_by_path[path].Record(cycles);
            break;
          }
        }
      }
    };
    auto measured_op = [&] {
      const ScopedSpan span(spans, SpanName::kOp);
      account(table.Op(rng, rng.NextBool(spec.write_ratio), measured));
      ++me.ops;
    };

    start_line.arrive_and_wait();
    const Stopwatch busy;
    const double cpu_start = ThreadCpuSeconds();
    if (plan.closed) {
      // Relaxed: a stale read only runs one more op; join orders the rest.
      while (!stop.load(std::memory_order_relaxed)) {
        measured_op();
      }
    } else {
      // Per-server Poisson sub-stream at rate/threads, on the server's
      // modeled clock (as in RunServiceBenchmark): a server ahead of its
      // next arrival idles (the gap is charged, so SlotCycles stays the
      // virtual time axis); one behind queues the request. Sojourn is
      // counted from when the request was due.
      const double cycles_per_arrival =
          CostModel::kCyclesPerSecond * threads / plan.rate_ops;
      std::uint64_t my_requests = plan.requests / threads;
      if (t < plan.requests % threads) {
        ++my_requests;
      }
      double next_arrival = 0.0;
      for (std::uint64_t i = 0; i < my_requests; ++i) {
        next_arrival += -std::log(1.0 - rng.NextDouble()) * cycles_per_arrival;
        const auto arrival = static_cast<std::uint64_t>(next_arrival);
        const std::uint64_t now = meter.SlotCycles(slot.slot());
        if (now < arrival) {
          meter.ChargeAt(slot.slot(), arrival - now);
        } else {
          me.queue_delay_sum += now - arrival;
          me.queue_delay_max = std::max(me.queue_delay_max, now - arrival);
        }
        measured_op();
        me.sojourn.Record(meter.SlotCycles(slot.slot()) - arrival);
        me.last_arrival_cycles = arrival;
      }
    }
    me.end_cycles = meter.SlotCycles(slot.slot());
    me.cpu_s = ThreadCpuSeconds() - cpu_start;
    me.busy_s = busy.ElapsedSeconds();
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::uint32_t t = 0; t < threads; ++t) {
    pool.emplace_back(work, t);
  }
  // The timekeeper blocks (barrier wait, sleep, join); it never spins, so
  // the workers have every core to themselves.
  start_line.arrive_and_wait();
  Stopwatch wall;
  if (plan.closed) {
    std::this_thread::sleep_for(std::chrono::duration<double>(plan.seconds));
    stop.store(true, std::memory_order_relaxed);
  }
  for (auto& thread : pool) {
    thread.join();
  }
  result.wall_s = wall.ElapsedSeconds();
  HtmRuntime::Global().set_interrupt_source(nullptr);

  // Harvest.
  result.cost = meter.Aggregate();
  for (const auto& lock : table.locks()) {
    result.stats += lock->stats().Aggregate();
  }
  result.page_faults =
      fixture.paging != nullptr ? fixture.paging->TotalFaults() - faults_before : 0;
  std::uint64_t queue_delay_sum = 0;
  std::uint64_t horizon_cycles = 0;
  std::uint64_t last_arrival_cycles = 0;
  for (WorkerState& worker : workers) {
    result.ops += worker.ops;
    result.cpu_s += worker.cpu_s;
    result.busy_s += worker.busy_s;
    result.attempted += worker.attempted;
    result.failed += worker.failed;
    fixture.size_delta += worker.size_delta;
    result.read_cycles.Merge(worker.read_cycles);
    result.write_cycles.Merge(worker.write_cycles);
    result.sojourn.Merge(worker.sojourn);
    for (int path = 0; path < kCommitPathCount; ++path) {
      result.write_by_path[path].Merge(worker.write_by_path[path]);
    }
    queue_delay_sum += worker.queue_delay_sum;
    result.queue_delay_max_ns = std::max(result.queue_delay_max_ns,
                                         static_cast<double>(worker.queue_delay_max));
    horizon_cycles = std::max(horizon_cycles, worker.end_cycles);
    last_arrival_cycles = std::max(last_arrival_cycles, worker.last_arrival_cycles);
    if (worker.spans != nullptr) {
      for (int name = 0; name < kSpanNameCount; ++name) {
        result.spans[name].Merge(worker.spans->totals(static_cast<SpanName>(name)));
      }
      result.retained.push_back(worker.spans->retained());
    }
  }
  if (!plan.closed && result.ops > 0) {
    result.queue_delay_mean_ns =
        static_cast<double>(queue_delay_sum) / static_cast<double>(result.ops);
    result.achieved_ops = static_cast<double>(result.ops) /
                          (static_cast<double>(horizon_cycles) / CostModel::kCyclesPerSecond);
    result.achieved_over_offered =
        static_cast<double>(last_arrival_cycles) / static_cast<double>(horizon_cycles);
  }

  // The locks' own LatencyRegistry must have seen exactly the measured ops.
  std::uint64_t registry_reads = 0;
  std::uint64_t registry_writes = 0;
  for (const auto& lock : table.locks()) {
    const LatencySnapshot snapshot = lock->latency().Snapshot();
    registry_reads += snapshot.op[static_cast<int>(OpKind::kRead)].count;
    registry_writes += snapshot.op[static_cast<int>(OpKind::kWrite)].count;
  }
  if (registry_reads != result.read_cycles.count() ||
      registry_writes != result.write_cycles.count()) {
    result.error = "LatencyRegistry counted " + std::to_string(registry_reads) + "/" +
                   std::to_string(registry_writes) + " reads/writes, benchmark issued " +
                   std::to_string(result.read_cycles.count()) + "/" +
                   std::to_string(result.write_cycles.count());
  }
  return result;
}

// ---- Trials ------------------------------------------------------------------

std::uint64_t SegmentSeed(std::uint64_t seed, int trial, int segment) {
  std::uint64_t state = seed * 0x100000001B3ull + static_cast<std::uint64_t>(trial) * 1024 +
                        static_cast<std::uint64_t>(segment);
  return SplitMix64(state);
}

struct RungReport {
  double offered = 0.0;
  double achieved_over_offered = 0.0;
  double p99_ns = 0.0;
  bool met = false;
};

struct TrialResult {
  bool traced = false;
  double host_ops_per_s = 0.0;
  double modeled_ops_per_s = 0.0;
  double read_p50 = 0.0;
  double read_p99 = 0.0;
  double write_p99 = 0.0;
  double sojourn_p50 = 0.0;
  double sojourn_p99 = 0.0;
  double sojourn_p999 = 0.0;
  double slo_capacity = 0.0;
  std::uint64_t closed_reads = 0;
  std::uint64_t closed_writes = 0;
  std::uint64_t sojourn_samples = 0;
  double queue_delay_mean_ns = 0.0;
  double queue_delay_max_ns = 0.0;
  double achieved_over_offered = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;  // first failed audit or cross-check
  double cpu_s = 0.0;   // workers' on-CPU time while measuring
  double busy_s = 0.0;  // workers' wall time while measuring
  std::vector<RungReport> rungs;
  std::vector<SetupCost> setups;
  // Traced trials only: the closed segment's counters and span totals (for
  // the per-layer metrics) and every retained span buffer (for the trace).
  std::unique_ptr<SegmentResult> closed;
  std::vector<std::vector<Span>> retained;
};

TrialResult RunTrial(const WorkloadSpec& spec, std::uint64_t seed, int trial,
                     double closed_seconds, bool traced, std::uint32_t threads) {
  TrialResult result;
  result.traced = traced;
  SegmentPlan plan;
  plan.traced = traced;
  std::uint64_t ops = 0;
  double wall = 0.0;
  // Runs one segment and folds what every segment reports (ops, host time,
  // checks, spans) into the trial.
  auto measure = [&](Fixture& fixture, int segment) {
    plan.seed = SegmentSeed(seed, trial, segment);
    SegmentResult measured = Measure(spec, fixture, plan, threads);
    ops += measured.ops;
    wall += measured.wall_s;
    result.cpu_s += measured.cpu_s;
    result.busy_s += measured.busy_s;
    result.attempted += measured.attempted;
    result.failed += measured.failed;
    if (result.error.empty()) {
      result.error = measured.error;
    }
    for (std::vector<Span>& spans : measured.retained) {
      result.retained.push_back(std::move(spans));
    }
    return measured;
  };
  // Builds a fresh fixture, runs `body` on it, then audits it.
  auto with_fixture = [&](auto&& body) {
    Fixture fixture = BuildFixture(spec, traced);
    body(fixture);
    const std::string problem = AuditFixture(fixture, threads);
    if (result.error.empty()) {
      result.error = problem;
    }
    result.setups.push_back(fixture.cost);
    if (!fixture.setup_spans.empty()) {
      result.retained.push_back(std::move(fixture.setup_spans));
    }
  };

  auto set_sojourn = [&](const FineHistogram& sojourn) {
    result.sojourn_p50 = sojourn.Percentile(50.0);
    result.sojourn_p99 = sojourn.Percentile(99.0);
    result.sojourn_p999 = sojourn.Percentile(99.9);
    result.sojourn_samples = sojourn.count();
  };

  plan.closed = true;
  plan.seconds = closed_seconds;
  with_fixture([&](Fixture& fixture) {
    SegmentResult closed = measure(fixture, 0);
    result.modeled_ops_per_s =
        static_cast<double>(closed.ops) / CostMeter::ModeledSeconds(closed.cost, threads);
    result.read_p50 = closed.read_cycles.Percentile(50.0);
    result.read_p99 = closed.read_cycles.Percentile(99.0);
    result.write_p99 = closed.write_cycles.Percentile(99.0);
    result.closed_reads = closed.read_cycles.count();
    result.closed_writes = closed.write_cycles.count();
    if (!spec.open_loop) {
      FineHistogram response;
      response.Merge(closed.read_cycles);
      response.Merge(closed.write_cycles);
      set_sojourn(response);
    }
    if (traced) {
      result.closed = std::make_unique<SegmentResult>(std::move(closed));
    }
  });

  if (spec.open_loop) {
    plan.closed = false;
    plan.rate_ops = spec.fixed_rate_ops;
    plan.requests = spec.fixed_requests;
    with_fixture([&](Fixture& fixture) {
      const SegmentResult fixed = measure(fixture, 1);
      set_sojourn(fixed.sojourn);
      result.queue_delay_mean_ns = fixed.queue_delay_mean_ns;
      result.queue_delay_max_ns = fixed.queue_delay_max_ns;
      result.achieved_over_offered = fixed.achieved_over_offered;
      // Open loop: the achieved rate at the fixed offered load (the
      // makespan bound above also assumes one global lock).
      result.modeled_ops_per_s = fixed.achieved_ops;
    });
  }

  // Ladder, on one fixture: climb until the first rung that misses. The
  // capacity is where the load margin crosses 1, interpolated linearly
  // between the last rung met and the first missed (from rate 0 at margin
  // 0 when the lowest rung already misses).
  plan.closed = false;
  result.slo_capacity = spec.ladder_ops.back();
  with_fixture([&](Fixture& fixture) {
    double met_rate = 0.0;
    double met_margin = 0.0;
    for (std::size_t rung = 0; rung < spec.ladder_ops.size(); ++rung) {
      plan.rate_ops = spec.ladder_ops[rung];
      plan.requests = spec.rung_requests;
      const SegmentResult segment = measure(fixture, 2 + static_cast<int>(rung));
      const double margin = segment.LoadMargin(spec.slo_p99_ns);
      result.rungs.push_back({plan.rate_ops, segment.achieved_over_offered,
                              segment.sojourn.Percentile(99.0), margin <= 1.0});
      if (margin <= 1.0) {
        met_rate = plan.rate_ops;
        met_margin = margin;
        continue;
      }
      const double fraction = (1.0 - met_margin) / (margin - met_margin);
      result.slo_capacity = met_rate + fraction * (plan.rate_ops - met_rate);
      break;
    }
  });

  result.host_ops_per_s = static_cast<double>(ops) / wall;
  return result;
}

// ---- Reporting -----------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

// The percentile, or 0 when fewer than ten samples lie beyond it.
double TailPercentile(const FineHistogram& hist, double percentile) {
  const double beyond = static_cast<double>(hist.count()) * (100.0 - percentile) / 100.0;
  return beyond >= 10.0 ? hist.Percentile(percentile) : 0.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // how it was aggregated, with sample counts
};

// Medians over the trials whose traced flag equals `traced`.
class TrialMedians {
 public:
  TrialMedians(const std::vector<TrialResult>& trials, bool traced) {
    for (const TrialResult& trial : trials) {
      if (trial.traced == traced) {
        trials_.push_back(&trial);
      }
    }
  }

  template <typename Field>
  double Of(Field field) const {
    std::vector<double> values;
    for (const TrialResult* trial : trials_) {
      values.push_back(field(*trial));
    }
    return Median(std::move(values));
  }

  std::size_t size() const { return trials_.size(); }

 private:
  std::vector<const TrialResult*> trials_;
};

std::vector<Metric> EndToEndMetrics(const std::vector<TrialResult>& trials,
                                    const std::vector<double>& setup_s, double peak_rss_mb) {
  const TrialMedians med(trials, false);
  const std::string trials_note = "median of " + std::to_string(med.size()) + " trials";
  auto samples = [&](const char* what, auto count) {
    return trials_note + ", ~" +
           std::to_string(static_cast<std::uint64_t>(
               med.Of([&](const TrialResult& t) { return static_cast<double>(count(t)); }))) +
           " " + what + " each";
  };
  const std::string reads = samples("reads", [](const TrialResult& t) { return t.closed_reads; });
  const std::string writes = samples("writes", [](const TrialResult& t) { return t.closed_writes; });
  const std::string requests =
      samples("requests", [](const TrialResult& t) { return t.sojourn_samples; });
  return {
      {"modeled_ops_per_s", med.Of([](auto& t) { return t.modeled_ops_per_s; }),
       "ops/modeled_s", trials_note},
      {"modeled_read_p50_ns", med.Of([](auto& t) { return t.read_p50; }), "modeled_ns", reads},
      {"modeled_read_p99_ns", med.Of([](auto& t) { return t.read_p99; }), "modeled_ns", reads},
      {"modeled_write_p99_ns", med.Of([](auto& t) { return t.write_p99; }), "modeled_ns",
       writes},
      {"sojourn_p50_ns", med.Of([](auto& t) { return t.sojourn_p50; }), "modeled_ns", requests},
      {"sojourn_p99_ns", med.Of([](auto& t) { return t.sojourn_p99; }), "modeled_ns", requests},
      {"sojourn_p999_ns", med.Of([](auto& t) { return t.sojourn_p999; }), "modeled_ns",
       requests},
      {"slo_capacity_ops_per_s", med.Of([](auto& t) { return t.slo_capacity; }),
       "ops/modeled_s", trials_note},
      {"setup_s", Median(setup_s), "s",
       "median of " + std::to_string(setup_s.size()) + " set-ups"},
      {"peak_rss_mb", peak_rss_mb, "MB", "whole process"},
  };
}

std::vector<Metric> PerLayerMetrics(const std::vector<TrialResult>& trials, double fixed_rate,
                                    double rss_mb_per_lock) {
  // Counters and spans of the traced trials' closed segments, summed.
  SegmentResult closed;
  std::vector<double> construct_s;
  std::vector<double> populate_s;
  for (const TrialResult& trial : trials) {
    for (const SetupCost& setup : trial.setups) {
      construct_s.push_back(setup.construct_s);
      populate_s.push_back(setup.populate_s);
    }
    if (trial.closed == nullptr) {
      continue;
    }
    const SegmentResult& segment = *trial.closed;
    closed.ops += segment.ops;
    closed.cost.parallel += segment.cost.parallel;
    closed.cost.writer_serial += segment.cost.writer_serial;
    closed.cost.global_serial += segment.cost.global_serial;
    closed.stats += segment.stats;
    closed.page_faults += segment.page_faults;
    for (int path = 0; path < kCommitPathCount; ++path) {
      closed.write_by_path[path].Merge(segment.write_by_path[path]);
    }
    for (int name = 0; name < kSpanNameCount; ++name) {
      closed.spans[name].Merge(segment.spans[name]);
    }
  }
  const double ops = static_cast<double>(closed.ops);
  const StatsSnapshot stats = closed.stats.Snapshot();
  const double commits = static_cast<double>(stats.commits.Total());
  const double speculative = static_cast<double>(stats.commits.htm + stats.commits.rot);
  const SpanTotals& read = closed.spans[static_cast<int>(SpanName::kLocksRead)];
  const SpanTotals& write = closed.spans[static_cast<int>(SpanName::kLocksWrite)];
  const SpanTotals& body = closed.spans[static_cast<int>(SpanName::kWorkloadsBody)];
  const std::string per_op = "per op over " + std::to_string(closed.ops) + " ops";
  const std::string read_spans = std::to_string(read.count) + " read spans";
  const std::string write_spans = std::to_string(write.count) + " write spans";
  const std::string setups = "median of " + std::to_string(construct_s.size()) + " set-ups";

  std::vector<Metric> metrics = {
      {"locks.read.host_ns_p50", read.duration_ns.Percentile(50.0), "ns", read_spans},
      {"locks.read.host_ns_p99", TailPercentile(read.duration_ns, 99.0), "ns", read_spans},
      {"locks.write.host_ns_p50", write.duration_ns.Percentile(50.0), "ns", write_spans},
      {"locks.write.host_ns_p99", TailPercentile(write.duration_ns, 99.0), "ns", write_spans},
      {"locks.write.self_host_ns_mean", Ratio(write.self_ns, static_cast<double>(write.count)),
       "ns", write_spans + " minus their body spans"},
      {"locks.construct_s", Median(construct_s), "s", setups},
      {"locks.rss_mb_per_lock", rss_mb_per_lock, "MB", "first set-up of the process"},
  };
  for (const CounterView& view : stats.commits.Entries()) {
    metrics.push_back({std::string("rwle.commits.") + view.key + "_share",
                       Ratio(static_cast<double>(view.count), commits), "share",
                       "of " + std::to_string(stats.commits.Total()) + " commits"});
  }
  for (const CommitPath path : {CommitPath::kHtm, CommitPath::kRot, CommitPath::kSerial}) {
    const FineHistogram& hist = closed.write_by_path[static_cast<int>(path)];
    metrics.push_back({std::string("rwle.write.") + CommitPathKey(path) + ".modeled_p99_ns",
                       TailPercentile(hist, 99.0), "modeled_ns",
                       std::to_string(hist.count()) + " writes; 0 if under 1000"});
  }
  metrics.push_back({"stats.parallel_cycles_per_op",
                     Ratio(static_cast<double>(closed.cost.parallel), ops), "cycles/op", per_op});
  metrics.push_back({"stats.writer_serial_cycles_per_op",
                     Ratio(static_cast<double>(closed.cost.writer_serial), ops), "cycles/op",
                     per_op});
  metrics.push_back({"stats.global_serial_cycles_per_op",
                     Ratio(static_cast<double>(closed.cost.global_serial), ops), "cycles/op",
                     per_op});
  for (const CounterView& view : stats.aborts.Entries()) {
    metrics.push_back({std::string("htm.aborts_per_op.") + view.key,
                       Ratio(static_cast<double>(view.count), ops), "aborts/op", per_op});
  }
  metrics.push_back({"htm.commit_ratio",
                     Ratio(speculative, speculative + static_cast<double>(stats.aborts.Total())),
                     "ratio", "speculative commits / speculative attempts"});
  metrics.push_back({"htm.attempts_per_write",
                     Ratio(static_cast<double>(write.children), static_cast<double>(write.count)),
                     "bodies/write", "body spans under " + write_spans});
  metrics.push_back({"workloads.body.host_ns_mean", body.duration_ns.Mean(), "ns",
                     std::to_string(body.count) + " body spans"});
  metrics.push_back({"workloads.populate_s", Median(populate_s), "s", setups});
  metrics.push_back({"memory.page_faults_per_op",
                     Ratio(static_cast<double>(closed.page_faults), ops), "faults/op", per_op});

  // The open-loop generator, at the fixed offered rate.
  const TrialMedians traced(trials, true);
  const std::string fixed_note =
      fixed_rate > 0.0 ? "median of " + std::to_string(traced.size()) +
                             " traced fixed-rate segments at " +
                             std::to_string(static_cast<std::uint64_t>(fixed_rate)) +
                             " ops/modeled_s"
                       : std::string("closed-loop workload: no fixed-rate segment");
  metrics.push_back({"harness.queue_delay_mean_ns",
                     traced.Of([](auto& t) { return t.queue_delay_mean_ns; }),
                     "modeled_ns", fixed_note});
  metrics.push_back({"harness.queue_delay_max_ns",
                     traced.Of([](auto& t) { return t.queue_delay_max_ns; }),
                     "modeled_ns", fixed_note});
  metrics.push_back({"harness.achieved_over_offered",
                     traced.Of([](auto& t) { return t.achieved_over_offered; }),
                     "ratio", fixed_note});

  // Tracing overhead, and the check that spans leave modeled time alone.
  const TrialMedians untraced(trials, false);
  const double host_untraced = untraced.Of([](auto& t) { return t.host_ops_per_s; });
  const double host_traced = traced.Of([](auto& t) { return t.host_ops_per_s; });
  const double modeled_untraced = untraced.Of([](auto& t) { return t.modeled_ops_per_s; });
  const double modeled_traced = traced.Of([](auto& t) { return t.modeled_ops_per_s; });
  metrics.push_back({"tracing.host_ops_per_s_untraced", host_untraced, "ops/s",
                     "median of " + std::to_string(untraced.size()) + " untraced trials"});
  metrics.push_back({"tracing.host_ops_per_s_traced", host_traced, "ops/s",
                     "median of " + std::to_string(traced.size()) + " traced trials"});
  metrics.push_back({"tracing.overhead_share", 1.0 - Ratio(host_traced, host_untraced), "share",
                     "1 - traced/untraced host_ops_per_s"});
  metrics.push_back({"tracing.modeled_ops_per_s_shift",
                     Ratio(modeled_traced, modeled_untraced) - 1.0, "share",
                     "traced/untraced modeled_ops_per_s - 1"});
  return metrics;
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& metric : metrics) {
    std::printf("  %-36s %16.6g %-14s %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), metric.note.c_str());
  }
}

std::string JsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void PrintResultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
                     const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

// Writes the retained spans as Chrome trace_event JSON (Perfetto,
// chrome://tracing): one process per traced trial, one lane per thread
// (the set-up lane is 1000), timestamps in host microseconds. Span and
// parent ids index the span's buffer, which args.buffer names.
bool WriteTrace(const std::string& path, const std::vector<TrialResult>& trials) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write trace file %s\n", path.c_str());
    return false;
  }
  out << "{\"traceEvents\": [\n";
  bool first = true;
  int buffer = 0;
  for (std::size_t trial = 0; trial < trials.size(); ++trial) {
    for (const std::vector<Span>& spans : trials[trial].retained) {
      ++buffer;
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& span = spans[i];
        out << (first ? "" : ",\n") << "{\"name\": \"" << SpanNameString(span.name)
            << "\", \"ph\": \"X\", \"pid\": " << trial << ", \"tid\": " << (span.op >> 40)
            << ", \"ts\": " << JsonNumber(static_cast<double>(span.start_ns) / 1000.0)
            << ", \"dur\": "
            << JsonNumber(static_cast<double>(span.end_ns - span.start_ns) / 1000.0)
            << ", \"args\": {\"buffer\": " << buffer
            << ", \"op\": " << (span.op & ((std::uint64_t{1} << 40) - 1)) << ", \"span\": " << i
            << ", \"parent\": "
            << (span.parent == kNoParent ? -1 : static_cast<std::int64_t>(span.parent))
            << "}}";
        first = false;
      }
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

int Usage(const std::string& message) {
  std::fprintf(stderr,
               "error: %s\nusage: e2e_bench --workload <read_mostly|write_contended|"
               "service_striped> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>]\n",
               message.c_str());
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string trace_out;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage("missing value for " + flag);
    }
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& candidate : Workloads()) {
    if (workload == candidate.name) {
      spec = &candidate;
    }
  }
  if (spec == nullptr) {
    return Usage("unknown workload '" + workload + "'");
  }
  if (!(seconds > 0.0)) {
    return Usage("--seconds must be positive");
  }

  const std::uint32_t threads =
      std::min(kMaxWorkers, std::max(1u, std::thread::hardware_concurrency()));
  const int trials = trace ? 2 * kTracedTrialPairs : kUntracedTrials;
  const double closed_seconds = seconds * kClosedShare / trials;
  auto cpu_share = [](const TrialResult& t) { return Ratio(t.cpu_s, t.busy_s); };
  std::printf("workload %s, seed %llu, %u threads, %d trials: closed loop %.3g s", spec->name,
              static_cast<unsigned long long>(seed), threads, trials, closed_seconds);
  if (spec->open_loop) {
    std::printf(", open loop %llu requests at %.4g ops/modeled_s",
                static_cast<unsigned long long>(spec->fixed_requests), spec->fixed_rate_ops);
  }
  std::printf(", ladder of %llu-request rungs (p99 sojourn limit %llu modeled ns, 0 = none)\n",
              static_cast<unsigned long long>(spec->rung_requests),
              static_cast<unsigned long long>(spec->slo_p99_ns));

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;
  // Process warm-up: one unreported closed-loop segment, so that first-touch
  // page faults (heap arenas, the fabric's conflict table) do not land in
  // the first trial. Its checks still count.
  double rss_mb_per_lock = 0.0;
  {
    Fixture fixture = BuildFixture(*spec, /*traced=*/false, /*measure_rss=*/true);
    rss_mb_per_lock = fixture.rss_mb_per_lock;
    SegmentPlan plan;
    plan.seconds = closed_seconds;
    plan.seed = SegmentSeed(seed, trials, 0);
    const SegmentResult warm = Measure(*spec, fixture, plan, threads);
    attempted += warm.attempted;
    failed += warm.failed;
    error = warm.error.empty() ? AuditFixture(fixture, threads) : warm.error;
  }

  std::vector<TrialResult> results;
  int undisturbed = 0;
  for (int trial = 0; trace ? trial < trials
                            : undisturbed < trials && trial < kMaxUntracedTrials;
       ++trial) {
    const bool traced = trace && trial % 2 == 1;
    results.push_back(RunTrial(*spec, seed, trial, closed_seconds, traced, threads));
    const TrialResult& result = results.back();
    undisturbed += cpu_share(result) >= kUndisturbedCpuShare ? 1 : 0;
    attempted += result.attempted;
    failed += result.failed;
    if (error.empty()) {
      error = result.error;
    }
    std::printf("  trial %d%s ladder:", trial, traced ? " (traced)" : "");
    for (const RungReport& rung : result.rungs) {
      std::printf(" %.3g %s (p99 %.0f, kept up %.3f)", rung.offered, rung.met ? "met" : "MISSED",
                  rung.p99_ns, rung.achieved_over_offered);
    }
    std::printf(" -> capacity %.4g; host %.4g ops/s; cpu share %.3f\n", result.slo_capacity,
                result.host_ops_per_s, cpu_share(result));
  }
  if (!trace) {
    std::stable_sort(results.begin(), results.end(),
                     [&](const TrialResult& a, const TrialResult& b) {
                       return cpu_share(a) > cpu_share(b);
                     });
    std::printf("reporting the %d least disturbed of %zu trials (%d with cpu share >= %.2f)\n",
                trials, results.size(), undisturbed, kUndisturbedCpuShare);
    results.resize(trials);
  }
  std::vector<double> setup_s;
  for (const TrialResult& result : results) {
    for (const SetupCost& setup : result.setups) {
      setup_s.push_back(setup.setup_s);
    }
  }
  const bool correct = failed == 0 && error.empty();
  std::printf("checks: %llu ops attempted, %llu failed, failed_op_share %.6g fraction%s%s\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              error.empty() ? "" : "; ", error.c_str());

  std::vector<Metric> reported;
  if (!trace) {
    reported = EndToEndMetrics(results, setup_s, PeakRssMb());
    PrintTable("end-to-end metrics", reported);
    // Host throughput follows the shared host's load more than the program
    // (README, "Reference numbers and stability"), so it is printed here but
    // left out of the result line; --trace 1 reports it per layer.
    const TrialMedians med(results, false);
    PrintTable("host time (not in the result line)",
               {{"host_ops_per_s", med.Of([](auto& t) { return t.host_ops_per_s; }), "ops/s",
                 "median of " + std::to_string(med.size()) + " trials"}});
  } else {
    reported = PerLayerMetrics(results, spec->fixed_rate_ops, rss_mb_per_lock);
    PrintTable("per-layer metrics", reported);
    if (!trace_out.empty() && !WriteTrace(trace_out, results)) {
      return 1;
    }
  }
  PrintResultLine(correct, attempted, failed, reported);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace rwle::e2e

int main(int argc, char** argv) { return rwle::e2e::Main(argc, argv); }
