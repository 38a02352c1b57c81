#include "core/executor.hpp"

#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <thread>

namespace mcs::fi {
namespace {

TestPlan quick_plan(std::uint32_t runs) {
  TestPlan plan = paper_medium_trap_plan();
  plan.runs = runs;
  plan.duration_ticks = 1'500;
  plan.phase = 2;
  return plan;
}

void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_EQ(a.runs[i].outcome, b.runs[i].outcome) << i;
    EXPECT_EQ(a.runs[i].detail, b.runs[i].detail) << i;
    EXPECT_EQ(a.runs[i].injections, b.runs[i].injections) << i;
    EXPECT_EQ(a.runs[i].flipped_bits, b.runs[i].flipped_bits) << i;
    EXPECT_EQ(a.runs[i].first_injection_tick, b.runs[i].first_injection_tick) << i;
    EXPECT_EQ(a.runs[i].failure_tick, b.runs[i].failure_tick) << i;
    EXPECT_EQ(a.runs[i].detection_latency(), b.runs[i].detection_latency()) << i;
    EXPECT_EQ(a.runs[i].uart1_bytes, b.runs[i].uart1_bytes) << i;
    EXPECT_EQ(a.runs[i].shutdown_reclaimed, b.runs[i].shutdown_reclaimed) << i;
  }
}

// The acceptance bar of the engine: a 64-run campaign is bit-identical
// regardless of the worker count.
TEST(CampaignExecutor, SixtyFourRunsIdenticalAcrossOneTwoEightThreads) {
  const TestPlan plan = quick_plan(64);
  const CampaignResult serial = CampaignExecutor(plan, {1}).execute();
  const CampaignResult two = CampaignExecutor(plan, {2}).execute();
  const CampaignResult eight = CampaignExecutor(plan, {8}).execute();
  expect_identical(serial, two);
  expect_identical(serial, eight);
}

// Sharding determinism is a property of the engine, not of one board:
// the same campaign on every registered board variant must stay
// bit-identical at 1, 4 and 8 worker threads.
TEST(CampaignExecutor, ShardingDeterministicOnEveryBoardVariant) {
  for (const char* board : {"bananapi", "quad-a7"}) {
    TestPlan plan = quick_plan(24);
    plan.board = board;
    const CampaignResult one = CampaignExecutor(plan, {1}).execute();
    const CampaignResult four = CampaignExecutor(plan, {4}).execute();
    const CampaignResult eight = CampaignExecutor(plan, {8}).execute();
    SCOPED_TRACE(board);
    expect_identical(one, four);
    expect_identical(one, eight);
  }
}

TEST(CampaignExecutor, UnknownBoardIsAHarnessError) {
  TestPlan plan = quick_plan(2);
  plan.board = "hexa-a53";
  const CampaignResult result = CampaignExecutor(plan, {2}).execute();
  ASSERT_EQ(result.runs.size(), 2u);
  for (const RunResult& run : result.runs) {
    EXPECT_EQ(run.outcome, Outcome::HarnessError);
    EXPECT_NE(run.detail.find("hexa-a53"), std::string::npos);
  }
}

TEST(CampaignExecutor, TuningBoardKeyOverridesPlanBoard) {
  // A plan pinned to the Banana Pi but tuned with `board quad-a7` must
  // run on the quad board — visible through the ivshmem-traffic setup,
  // which refuses boards without spare cores.
  TestPlan plan = quick_plan(1);
  plan.scenario = "ivshmem-traffic";
  plan.board = "bananapi";
  plan.cell_tuning = "board quad-a7";
  const CampaignResult result = CampaignExecutor(plan, {1}).execute();
  ASSERT_EQ(result.runs.size(), 1u);
  EXPECT_NE(result.runs[0].outcome, Outcome::HarnessError)
      << result.runs[0].detail;
}

TEST(CampaignExecutor, WrappingRamTuningIsInvalidArgumentsLikeOversizedRam) {
  // A ram region whose end wraps past 2^64 must be refused at create, the
  // same outcome as one that does not fit the root's loanable pool.
  for (const char* tuning : {"ram 0xffffffffffffffff", "ram 0x100000000"}) {
    TestPlan plan = quick_plan(2);
    plan.scenario = "freertos-steady";
    plan.cell_tuning = tuning;
    const CampaignResult result = CampaignExecutor(plan, {1}).execute();
    ASSERT_EQ(result.runs.size(), 2u) << tuning;
    for (const RunResult& run : result.runs) {
      EXPECT_EQ(run.outcome, Outcome::InvalidArguments) << tuning << ": " << run.detail;
    }
  }
}

TEST(CampaignExecutor, ProgressFiresOncePerRunWithUniqueIndices) {
  const TestPlan plan = quick_plan(16);
  CampaignExecutor executor(plan, {4});
  std::mutex mutex;
  std::set<std::uint32_t> seen;
  executor.set_progress([&](std::uint32_t index, const RunResult&) {
    const std::lock_guard<std::mutex> lock(mutex);
    EXPECT_TRUE(seen.insert(index).second) << "duplicate index " << index;
  });
  const CampaignResult result = executor.execute();
  EXPECT_EQ(result.runs.size(), 16u);
  EXPECT_EQ(seen.size(), 16u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 15u);
}

TEST(CampaignExecutor, SerialProgressArrivesInRunOrder) {
  // Width 1 runs inline: no worker thread, so every callback fires on the
  // caller's thread, in run order.
  CampaignExecutor executor(quick_plan(5), {1});
  const std::thread::id caller = std::this_thread::get_id();
  std::uint32_t expected = 0;
  executor.set_progress([&](std::uint32_t index, const RunResult&) {
    EXPECT_EQ(index, expected++);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  (void)executor.execute();
  EXPECT_EQ(expected, 5u);
}

TEST(CampaignExecutor, ZeroRunPlanYieldsEmptyResult) {
  const CampaignResult result =
      CampaignExecutor(quick_plan(0), {4}).execute();
  EXPECT_TRUE(result.runs.empty());
  EXPECT_EQ(result.distribution().total(), 0u);
}

TEST(CampaignExecutor, RateZeroIsAHarnessErrorOnEveryRun) {
  // The injector fires on every rate-th hook call, so rate 0 has no
  // cadence: it must be refused per run, never reach the injector, and
  // never provision a testbed.
  TestPlan plan = quick_plan(3);
  plan.rate = 0;
  const auto before = TestbedPool::instance().stats();
  for (const unsigned threads : {1u, 4u}) {
    const CampaignResult result = CampaignExecutor(plan, {threads}).execute();
    ASSERT_EQ(result.runs.size(), 3u);
    for (const RunResult& run : result.runs) {
      EXPECT_EQ(run.outcome, Outcome::HarnessError);
      EXPECT_NE(run.detail.find("rate 0"), std::string::npos) << run.detail;
    }
  }
  EXPECT_EQ(CampaignExecutor(plan, {1}).execute_one(7).outcome,
            Outcome::HarnessError);
  EXPECT_EQ(TestbedPool::instance().stats().acquires, before.acquires);
}

TEST(CampaignExecutor, ScenarioSelectionAffectsResults) {
  // inject-during-boot opens the management path to faults; with an early
  // phase the two scenarios must diverge somewhere over enough runs.
  TestPlan steady = quick_plan(10);
  TestPlan during_boot = quick_plan(10);
  during_boot.scenario = "inject-during-boot";
  during_boot.phase = 1;
  const CampaignResult a = CampaignExecutor(steady, {2}).execute();
  const CampaignResult b = CampaignExecutor(during_boot, {2}).execute();
  // Same seeds, different lifecycle: the injection lands in a different
  // frame, so at minimum the timing observables must diverge somewhere.
  bool any_difference = false;
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    if (a.runs[i].outcome != b.runs[i].outcome ||
        a.runs[i].injections != b.runs[i].injections ||
        a.runs[i].uart1_bytes != b.runs[i].uart1_bytes ||
        a.runs[i].first_injection_tick != b.runs[i].first_injection_tick) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace mcs::fi
