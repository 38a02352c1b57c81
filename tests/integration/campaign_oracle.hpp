// Shared harness of the tick-, reuse- and snapshot-equivalence suites.
//
// The reference ("oracle") for every provisioning path is
// CampaignExecutor::execute_one(): the same run on a freshly built
// testbed. oracle_campaign() replays a whole plan that way — seeds
// expanded exactly as execute() expands them — and the suites require
// the pooled executor (restore or reset + boot per run) and a dirty-slot
// reset-per-run loop to match it run for run, byte for byte. The
// executor runs event-driven; per_tick_campaign() is the reference for
// that, built from public Testbed calls on the legacy per-tick loop.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/log_sink.hpp"
#include "core/executor.hpp"
#include "core/injector.hpp"
#include "core/monitor.hpp"
#include "core/testbed_pool.hpp"
#include "hypervisor/config_text.hpp"
#include "platform/board_registry.hpp"
#include "util/rng.hpp"

namespace mcs::fi::oracle {

struct CampaignCapture {
  CampaignResult result;
  std::string log_text;
  analysis::CampaignAggregate aggregate;
};

inline std::vector<std::uint64_t> run_seeds(const TestPlan& plan) {
  std::vector<std::uint64_t> seeds(plan.runs);
  util::SplitMix64 seeder(plan.seed);
  for (std::uint64_t& seed : seeds) seed = seeder.next();
  return seeds;
}

inline CampaignCapture capture(CampaignResult result) {
  CampaignCapture out;
  analysis::LogSink sink;
  for (std::uint32_t i = 0; i < result.runs.size(); ++i) {
    sink.record(i, result.runs[i]);
  }
  out.result = std::move(result);
  out.log_text = sink.text();
  out.aggregate = sink.aggregate();
  return out;
}

/// The plan through the pooled executor at `threads` workers.
inline CampaignCapture executor_campaign(const TestPlan& plan, unsigned threads) {
  CampaignExecutor executor(plan, {threads});
  return capture(executor.execute());
}

/// The plan run by run through execute_one(): one fresh testbed per run.
inline CampaignCapture oracle_campaign(const TestPlan& plan) {
  const CampaignExecutor executor(plan);
  CampaignResult result;
  result.plan = plan;
  for (const std::uint64_t seed : run_seeds(plan)) {
    result.runs.push_back(executor.execute_one(seed));
  }
  return capture(std::move(result));
}

/// One run on a testbed that scenario.setup() has already configured:
/// boot (with the injector live when the scenario injects during boot),
/// the injected window, the epilogue, classification and — on failure —
/// the shutdown probe. The executor's per-run sequence in public calls.
inline RunResult run_prepared(const Scenario& scenario, const TestPlan& plan,
                              std::uint64_t seed, Testbed& testbed) {
  Injector injector(plan, seed, testbed.board().clock());
  RunMonitor monitor;
  if (scenario.arm_during_boot(plan)) {
    injector.attach(testbed.hypervisor());
    scenario.boot(testbed);
    monitor.begin(testbed);
  } else {
    scenario.boot(testbed);
    monitor.begin(testbed);
    injector.attach(testbed.hypervisor());
  }
  scenario.observe(testbed, plan);
  injector.set_armed(false);
  scenario.epilogue(testbed);
  RunResult run = monitor.finish(testbed);
  run.fault_domain = plan.fault_domain;
  run.injections = injector.injections();
  run.first_injection_tick = injector.first_injection_tick();
  for (const InjectionRecord& record : injector.records()) {
    run.flipped_bits += record.flips.size();
  }
  if (run.outcome != Outcome::Correct && run.outcome != Outcome::HarnessError) {
    run.shutdown_reclaimed = probe_shutdown_reclaims(testbed);
  }
  injector.detach(testbed.hypervisor());
  return run;
}

/// The plan on one testbed that is reset() and re-booted before every
/// run, never restored from a post-boot snapshot — the executor's reset
/// path, driven through public calls on a slot `dirty` ran on first.
/// Plans must carry no cell tuning.
inline CampaignCapture reset_per_run_campaign(const TestPlan& plan,
                                              const TestPlan& dirty) {
  EXPECT_TRUE(plan.cell_tuning.empty() && dirty.cell_tuning.empty());
  const Scenario& scenario = *find_scenario(plan.scenario);
  TestbedPool pool;
  const TestbedLease lease = pool.acquire(
      plan.board, "", *platform::BoardRegistry::instance().entry(plan.board));
  Testbed& testbed = *lease.get();
  // Dirty the slot with another scenario's boot + window first.
  const Scenario& previous = *find_scenario(dirty.scenario);
  EXPECT_TRUE(previous.setup(testbed).is_ok());
  previous.boot(testbed);
  testbed.run(dirty.duration_ticks);

  CampaignResult result;
  result.plan = plan;
  for (const std::uint64_t seed : run_seeds(plan)) {
    testbed.reset();
    EXPECT_TRUE(scenario.setup(testbed).is_ok());
    result.runs.push_back(run_prepared(scenario, plan, seed, testbed));
  }
  return capture(std::move(result));
}

/// The plan on the legacy per-tick loop: per run, a freshly built testbed
/// on the plan's board (the tuning's `board` key overrides it), forced to
/// TickPolicy::PerTick, tuned, set up, then run_prepared(). The reference
/// the event-driven executor must match run for run, byte for byte.
inline CampaignCapture per_tick_campaign(const TestPlan& plan) {
  jh::CellTuning tuning;
  if (!plan.cell_tuning.empty()) {
    auto parsed = jh::parse_cell_tuning(plan.cell_tuning);
    EXPECT_TRUE(parsed.is_ok()) << parsed.status().to_string();
    if (parsed.is_ok()) tuning = parsed.value();
  }
  const std::string board = tuning.board.empty() ? plan.board : tuning.board;
  const Scenario& scenario = *find_scenario(plan.scenario);
  CampaignResult result;
  result.plan = plan;
  for (const std::uint64_t seed : run_seeds(plan)) {
    Testbed testbed(platform::make_board(board));
    testbed.set_tick_policy(jh::TickPolicy::PerTick);
    if (!tuning.empty()) testbed.set_cell_tuning(tuning);
    EXPECT_TRUE(scenario.setup(testbed).is_ok()) << plan.scenario;
    result.runs.push_back(run_prepared(scenario, plan, seed, testbed));
  }
  return capture(std::move(result));
}

inline void expect_identical(const CampaignCapture& want,
                             const CampaignCapture& got,
                             const std::string& label) {
  // Bit-identical run logs are the headline: every observable a run
  // reports is rendered into its log line.
  EXPECT_EQ(want.log_text, got.log_text) << label;
  ASSERT_EQ(want.result.runs.size(), got.result.runs.size()) << label;
  for (std::size_t i = 0; i < want.result.runs.size(); ++i) {
    const RunResult& x = want.result.runs[i];
    const RunResult& y = got.result.runs[i];
    const std::string at = label + ", run " + std::to_string(i);
    EXPECT_EQ(x.outcome, y.outcome) << at;
    EXPECT_EQ(x.detail, y.detail) << at;
    EXPECT_EQ(x.injections, y.injections) << at;
    EXPECT_EQ(x.flipped_bits, y.flipped_bits) << at;
    EXPECT_EQ(x.first_injection_tick, y.first_injection_tick) << at;
    EXPECT_EQ(x.failure_tick, y.failure_tick) << at;
    EXPECT_EQ(x.uart1_bytes, y.uart1_bytes) << at;
    EXPECT_EQ(x.led_toggles, y.led_toggles) << at;
    EXPECT_EQ(x.traps, y.traps) << at;
    EXPECT_EQ(x.hvcs, y.hvcs) << at;
    EXPECT_EQ(x.irqs, y.irqs) << at;
    EXPECT_EQ(x.create_result, y.create_result) << at;
    EXPECT_EQ(x.start_result, y.start_result) << at;
    EXPECT_EQ(x.cell_exists, y.cell_exists) << at;
    EXPECT_EQ(x.shutdown_reclaimed, y.shutdown_reclaimed) << at;
  }
  // Aggregates fold from the runs; compare the fields analytics consume.
  for (std::size_t o = 0; o < kNumOutcomes; ++o) {
    const auto outcome = static_cast<Outcome>(o);
    EXPECT_EQ(want.aggregate.distribution.count(outcome),
              got.aggregate.distribution.count(outcome))
        << label << ": " << outcome_name(outcome);
  }
  EXPECT_EQ(want.aggregate.injections, got.aggregate.injections) << label;
  EXPECT_EQ(want.aggregate.cell_failures, got.aggregate.cell_failures) << label;
  EXPECT_EQ(want.aggregate.reclaimed, got.aggregate.reclaimed) << label;
}

}  // namespace mcs::fi::oracle
