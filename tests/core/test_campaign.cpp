// The campaign loop (CampaignExecutor at width 1: one thread, runs in
// order) and the CampaignResult / run-log helpers of core/campaign.hpp.
#include "core/executor.hpp"

#include <gtest/gtest.h>

namespace mcs::fi {
namespace {

TestPlan quick_medium_plan(std::uint32_t runs) {
  TestPlan plan = paper_medium_trap_plan();
  plan.runs = runs;
  // Short observation with an early phase so every run still receives an
  // injection without simulating a full minute.
  plan.duration_ticks = 3'000;
  plan.phase = 2;
  return plan;
}

TEST(Campaign, ExecutesRequestedRuns) {
  CampaignExecutor campaign(quick_medium_plan(4), {1});
  const CampaignResult result = campaign.execute();
  EXPECT_EQ(result.runs.size(), 4u);
  EXPECT_EQ(result.distribution().total(), 4u);
}

TEST(Campaign, EveryRunReceivesInjections) {
  CampaignExecutor campaign(quick_medium_plan(4), {1});
  const CampaignResult result = campaign.execute();
  for (const RunResult& run : result.runs) {
    EXPECT_GE(run.injections, 1u);
    EXPECT_GT(run.flipped_bits, 0u);
  }
  EXPECT_GE(result.total_injections(), 4u);
}

TEST(Campaign, DeterministicForSeed) {
  CampaignExecutor a(quick_medium_plan(6), {1});
  CampaignExecutor b(quick_medium_plan(6), {1});
  const CampaignResult result_a = a.execute();
  const CampaignResult result_b = b.execute();
  ASSERT_EQ(result_a.runs.size(), result_b.runs.size());
  for (std::size_t i = 0; i < result_a.runs.size(); ++i) {
    EXPECT_EQ(result_a.runs[i].outcome, result_b.runs[i].outcome) << i;
    EXPECT_EQ(result_a.runs[i].injections, result_b.runs[i].injections) << i;
  }
}

TEST(Campaign, DifferentSeedsDiverge) {
  TestPlan plan_a = quick_medium_plan(8);
  TestPlan plan_b = quick_medium_plan(8);
  plan_b.seed = plan_a.seed + 1;
  const CampaignResult a = CampaignExecutor(plan_a, {1}).execute();
  const CampaignResult b = CampaignExecutor(plan_b, {1}).execute();
  bool any_difference = false;
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    if (a.runs[i].outcome != b.runs[i].outcome) any_difference = true;
  }
  // Eight medium runs with different faults almost surely differ; if this
  // ever flakes the seeds were astronomically unlucky.
  EXPECT_TRUE(any_difference);
}

TEST(Campaign, ProgressCallbackFires) {
  CampaignExecutor campaign(quick_medium_plan(3), {1});
  int calls = 0;
  campaign.set_progress([&](std::uint32_t index, const RunResult&) {
    EXPECT_EQ(index, static_cast<std::uint32_t>(calls));
    ++calls;
  });
  (void)campaign.execute();
  EXPECT_EQ(calls, 3);
}

TEST(Campaign, ExecuteOneIsReplayable) {
  CampaignExecutor campaign(quick_medium_plan(1), {1});
  const RunResult a = campaign.execute_one(777);
  const RunResult b = campaign.execute_one(777);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.injections, b.injections);
  EXPECT_EQ(a.uart1_bytes, b.uart1_bytes);
}

TEST(Campaign, RecoveryProbeRecordedOnFailures) {
  TestPlan plan = quick_medium_plan(12);
  CampaignExecutor campaign(plan, {1});
  const CampaignResult result = campaign.execute();
  for (const RunResult& run : result.runs) {
    if (run.outcome == Outcome::CpuPark) {
      // §III: after a CPU park, destroying/shutting down the cell works.
      EXPECT_TRUE(run.shutdown_reclaimed);
    }
    if (run.outcome == Outcome::PanicPark) {
      EXPECT_FALSE(run.shutdown_reclaimed);  // nothing recoverable
    }
  }
}

TEST(Campaign, RunLogLineMentionsOutcome) {
  RunResult run;
  run.outcome = Outcome::PanicPark;
  run.detail = "HYP stack pointer corrupted";
  run.injections = 2;
  const std::string line = run_log_line(7, run);
  EXPECT_NE(line.find("run 7"), std::string::npos);
  EXPECT_NE(line.find("panic-park"), std::string::npos);
  EXPECT_NE(line.find("HYP stack"), std::string::npos);
}

TEST(Campaign, MeanDetectionLatencyIgnoresCleanRuns) {
  CampaignResult result;
  RunResult clean;
  clean.outcome = Outcome::Correct;
  result.runs.push_back(clean);
  RunResult failed;
  failed.first_injection_tick = 100;
  failed.failure_tick = 150;
  result.runs.push_back(failed);
  EXPECT_DOUBLE_EQ(result.mean_detection_latency(), 50.0);
}

}  // namespace
}  // namespace mcs::fi
