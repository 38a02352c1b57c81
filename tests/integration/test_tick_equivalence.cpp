// Golden equivalence for the event-driven tick scheduler.
//
// The deadline scheduler may only leap spans in which nothing can
// execute, so the executor's (always event-driven) campaigns must be
// *bit-identical* to a per-tick reference campaign built from public
// Testbed calls (oracle::per_tick_campaign): same run-log lines, same
// outcome distribution, same injection and failure timestamps. This
// suite pins that property on every registered scenario, and pins the
// executor's companion guarantee — thread-count-independent results.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "campaign_oracle.hpp"
#include "core/monitor.hpp"
#include "hypervisor/watchdog.hpp"
#include "platform/board_registry.hpp"

namespace mcs::fi {
namespace {

TestPlan equivalence_plan(const std::string& scenario) {
  TestPlan plan = find_scenario(scenario)->make_plan();
  plan.runs = 5;
  plan.duration_ticks = 3'000;
  plan.phase = 2;  // inject early so failed runs leave long inert tails
  return plan;
}

TEST(TickEquivalence, EventDrivenMatchesPerTickOnEveryScenario) {
  for (const std::string& name : ScenarioRegistry::instance().names()) {
    const TestPlan plan = equivalence_plan(name);
    oracle::expect_identical(oracle::per_tick_campaign(plan),
                             oracle::executor_campaign(plan, 1),
                             "scenario " + name);
  }
}

TEST(TickEquivalence, EventDrivenCampaignsExerciseFailingRuns) {
  // The equivalence above is only meaningful if the plans actually drive
  // runs into the failure states whose tails the scheduler leaps.
  const TestPlan plan = equivalence_plan("freertos-steady");
  const OutcomeDistribution dist =
      oracle::executor_campaign(plan, 1).result.distribution();
  EXPECT_GT(dist.total() - dist.count(Outcome::Correct), 0u)
      << "plan produced no failures; tighten rate/phase";
}

TEST(TickEquivalence, AggregateIdenticalAcrossOneFourEightThreads) {
  // {board} × {threads}: the executor's thread-count independence must
  // hold on every registered board variant, including the 4-CPU board
  // hosting two concurrent cells.
  const auto expect_thread_independent = [](const TestPlan& plan,
                                            const std::string& label) {
    const oracle::CampaignCapture one = oracle::executor_campaign(plan, 1);
    oracle::expect_identical(one, oracle::executor_campaign(plan, 4),
                             label + "threads 1 vs 4");
    oracle::expect_identical(one, oracle::executor_campaign(plan, 8),
                             label + "threads 1 vs 8");
  };
  for (const std::string& board : platform::BoardRegistry::instance().names()) {
    TestPlan plan = equivalence_plan("dual-cell");
    plan.board = board;
    expect_thread_independent(plan, board + ": ");
  }
  expect_thread_independent(equivalence_plan("freertos-steady"), "");
}

TEST(TickEquivalence, WindowsCloseExactlyAtOpenPlusDuration) {
  // Deadline-driven windows: whatever a scenario does inside its window
  // (dual-cell's mid-window swap, ivshmem-traffic's staggered exchange
  // slices — phases with their own tick costs), the window must close
  // exactly duration ticks after the monitor opened it, under either
  // tick policy, on the scenario's own default board.
  for (const char* name : {"freertos-steady", "dual-cell", "ivshmem-traffic"}) {
    for (const jh::TickPolicy policy :
         {jh::TickPolicy::PerTick, jh::TickPolicy::EventDriven}) {
      const Scenario* scenario = find_scenario(name);
      ASSERT_NE(scenario, nullptr);
      TestPlan plan = scenario->make_plan();
      plan.duration_ticks = 2'500;
      Testbed testbed(platform::make_board(plan.board));
      testbed.set_tick_policy(policy);
      ASSERT_TRUE(scenario->setup(testbed).is_ok()) << name;
      scenario->boot(testbed);
      RunMonitor monitor;
      monitor.begin(testbed);
      scenario->observe(testbed, plan);
      EXPECT_EQ(testbed.board().now().value,
                monitor.window_open_tick() + plan.duration_ticks)
          << name;
    }
  }
}

TEST(TickEquivalence, WatchdogAlarmsLandOnIdenticalTicks) {
  // The watchdog's batched accounting must keep check rounds — and the
  // alarms they raise — on the same board ticks as per-tick accounting.
  std::vector<std::uint64_t> alarm_ticks[2];
  const jh::TickPolicy policies[2] = {jh::TickPolicy::PerTick,
                                      jh::TickPolicy::EventDriven};
  for (int mode = 0; mode < 2; ++mode) {
    Testbed testbed;
    testbed.set_tick_policy(policies[mode]);
    ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
    jh::CellWatchdog watchdog(testbed.hypervisor(), {});
    testbed.machine().install_watchdog(&watchdog);
    testbed.boot_freertos_cell();
    testbed.run(150);
    // Park every core and quiesce the timers: the remaining window is
    // fully inert, so the event-driven path leaps from watchdog check to
    // watchdog check — and must still observe identical boundaries.
    testbed.board().cpu(0).park("equivalence probe");
    testbed.board().cpu(1).park("equivalence probe");
    testbed.board().timer().stop(0);
    testbed.board().timer().stop(1);
    testbed.run(500);
    for (const jh::WatchdogEvent& event : watchdog.events()) {
      alarm_ticks[mode].push_back(event.tick);
    }
    testbed.machine().install_watchdog(nullptr);
  }
  EXPECT_EQ(alarm_ticks[0], alarm_ticks[1]);
  EXPECT_FALSE(alarm_ticks[0].empty());
}

}  // namespace
}  // namespace mcs::fi
