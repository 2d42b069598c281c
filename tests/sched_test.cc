// Tests for the deterministic cooperative scheduler (src/sched/): same-seed
// determinism, replay fidelity, schedule shrinking, and bug-finding on the
// deliberately racy litmus workload with every strategy. Built only when
// RWLE_SCHED is on (see tests/CMakeLists.txt); in analysis configurations
// the txsan oracle additionally watches every scheduled run.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/sched/explore.h"
#include "src/sched/litmus.h"
#include "src/sched/schedule_trace.h"
#include "src/sched/scheduler.h"
#include "src/sched/strategy.h"

namespace rwle::sched {
namespace {

const LitmusSpec& Spec(const char* name) {
  const LitmusSpec* spec = FindLitmus(name);
  EXPECT_NE(spec, nullptr) << name;
  return *spec;
}

std::vector<std::uint64_t> HashesFor(const char* workload, std::uint64_t seed,
                                     int schedules) {
  const LitmusSpec& spec = Spec(workload);
  RandomStrategy strategy(seed);
  std::vector<std::uint64_t> hashes;
  for (int i = 0; i < schedules; ++i) {
    strategy.BeginSchedule(static_cast<std::uint64_t>(i));
    std::string failure;
    const ScheduleTrace trace = RunOneSchedule(spec, &strategy, 1 << 20, &failure);
    hashes.push_back(trace.Hash());
  }
  return hashes;
}

TEST(SchedDeterminism, SameSeedSameSchedules) {
  const std::vector<std::uint64_t> first = HashesFor("conflict", 7, 5);
  const std::vector<std::uint64_t> second = HashesFor("conflict", 7, 5);
  EXPECT_EQ(first, second);
}

TEST(SchedDeterminism, DifferentSeedsDifferentSchedules) {
  // Five whole schedules colliding across seeds would mean the per-schedule
  // seed derivation is broken.
  EXPECT_NE(HashesFor("conflict", 7, 5), HashesFor("conflict", 8, 5));
}

TEST(SchedDeterminism, ScheduledRunsInterleave) {
  // Distinct schedule indices must actually explore distinct interleavings.
  const std::vector<std::uint64_t> hashes = HashesFor("lost-update", 11, 8);
  bool any_different = false;
  for (std::size_t i = 1; i < hashes.size(); ++i) {
    any_different |= hashes[i] != hashes[0];
  }
  EXPECT_TRUE(any_different);
}

TEST(SchedExplore, RandomFindsLostUpdate) {
  ExploreOptions options;
  options.strategy = "random";
  options.schedules = 256;
  options.seed = 3;
  const ExploreResult result = Explore(Spec("lost-update"), options);
  ASSERT_TRUE(result.failed);
  EXPECT_EQ(result.failure, "verify-failed");
  EXPECT_FALSE(result.failing_trace.steps.empty());
}

TEST(SchedExplore, PctFindsLostUpdate) {
  ExploreOptions options;
  options.strategy = "pct";
  options.schedules = 256;
  options.seed = 5;
  options.pct_depth = 3;
  const ExploreResult result = Explore(Spec("lost-update"), options);
  ASSERT_TRUE(result.failed);
  EXPECT_EQ(result.failure, "verify-failed");
}

TEST(SchedExplore, DfsFindsLostUpdate) {
  ExploreOptions options;
  options.strategy = "dfs";
  options.schedules = 5000;
  options.dfs_max_depth = 32;
  const ExploreResult result = Explore(Spec("lost-update"), options);
  ASSERT_TRUE(result.failed);
  EXPECT_EQ(result.failure, "verify-failed");
}

TEST(SchedExplore, CorrectWorkloadsStayClean) {
  for (const char* workload :
       {"conflict", "inc-elided", "rot-conflict", "first-touch-reader"}) {
    ExploreOptions options;
    options.strategy = "random";
    options.schedules = 12;
    options.seed = 1;
    const ExploreResult result = Explore(Spec(workload), options);
    EXPECT_FALSE(result.failed) << workload << " failed with " << result.failure;
    EXPECT_EQ(result.schedules_run, 12u) << workload;
  }
}

TEST(SchedReplay, ReproducesFailingTraceExactly) {
  ExploreOptions options;
  options.schedules = 256;
  options.seed = 3;
  const ExploreResult result = Explore(Spec("lost-update"), options);
  ASSERT_TRUE(result.failed);
  std::string failure;
  const ScheduleTrace replayed = Replay(Spec("lost-update"), result.failing_trace, &failure);
  EXPECT_EQ(failure, result.failure);
  EXPECT_EQ(replayed.Hash(), result.failing_trace.Hash());
  EXPECT_EQ(replayed.steps.size(), result.failing_trace.steps.size());
}

TEST(SchedShrink, ProducesSmallerStillFailingTrace) {
  ExploreOptions options;
  options.schedules = 256;
  options.seed = 3;
  const ExploreResult result = Explore(Spec("lost-update"), options);
  ASSERT_TRUE(result.failed);
  const ScheduleTrace shrunk =
      Shrink(Spec("lost-update"), result.failing_trace, result.failure, 128);
  EXPECT_LE(shrunk.steps.size(), result.failing_trace.steps.size());
  // The minimized schedule must stand on its own: replaying it reproduces
  // the same failure with the same hash.
  std::string failure;
  const ScheduleTrace replayed = Replay(Spec("lost-update"), shrunk, &failure);
  EXPECT_EQ(failure, result.failure);
  EXPECT_EQ(replayed.Hash(), shrunk.Hash());
}

TEST(SchedTraceFile, RoundTripsThroughDisk) {
  ExploreOptions options;
  options.schedules = 256;
  options.seed = 3;
  const ExploreResult result = Explore(Spec("lost-update"), options);
  ASSERT_TRUE(result.failed);
  const std::string path = ::testing::TempDir() + "sched_test_repro.trace";
  ASSERT_TRUE(WriteTraceFile(path, result.failing_trace));
  ScheduleTrace loaded;
  std::string error;
  ASSERT_TRUE(ReadTraceFile(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.workload, result.failing_trace.workload);
  EXPECT_EQ(loaded.threads, result.failing_trace.threads);
  EXPECT_EQ(loaded.failure, result.failing_trace.failure);
  EXPECT_EQ(loaded.Hash(), result.failing_trace.Hash());
  ASSERT_EQ(loaded.steps.size(), result.failing_trace.steps.size());
  for (std::size_t i = 0; i < loaded.steps.size(); ++i) {
    EXPECT_TRUE(loaded.steps[i] == result.failing_trace.steps[i]) << "step " << i;
  }
}

TEST(SchedTraceFile, RejectsCorruptedTrace) {
  const std::string path = ::testing::TempDir() + "sched_test_corrupt.trace";
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("rwle-schedule-trace v1\nworkload lost-update\nhash 0000000000000001\n"
          "choices 0:fabric-load\n",
          f);
    fclose(f);
  }
  ScheduleTrace loaded;
  std::string error;
  EXPECT_FALSE(ReadTraceFile(path, &loaded, &error));
  EXPECT_NE(error.find("hash mismatch"), std::string::npos) << error;
}

TEST(SchedScheduler, ParticipantOutsideRoundIsNoop) {
  // Harness code wraps workers unconditionally; without an open round the
  // wrapper must not touch the scheduler.
  EXPECT_FALSE(Scheduler::Global().round_active());
  { const RoundParticipant participant(0); }
  EXPECT_FALSE(Scheduler::Global().round_active());
}

TEST(SeedDerivation, MatchesDocumentedFormulas) {
  // These formulas are the reproducibility contract (src/common/rng.h):
  // recorded baselines and traces assume them byte-for-byte.
  EXPECT_EQ(DeriveCellSeed(42, 8), 50u);
  EXPECT_EQ(DeriveThreadSeed(42, 0), 42ull * 0x9E3779B97F4A7C15ull + 1);
  EXPECT_EQ(DeriveThreadSeed(42, 3), 42ull * 0x9E3779B97F4A7C15ull + 4);
  EXPECT_NE(DeriveScheduleSeed(1, 0), DeriveScheduleSeed(1, 1));
  EXPECT_EQ(DeriveScheduleSeed(1, 0), DeriveScheduleSeed(1, 0));
}

}  // namespace
}  // namespace rwle::sched
