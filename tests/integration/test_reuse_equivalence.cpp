// Reuse equivalence for the pooled campaign executor.
//
// Slot reuse may only ever be an *optimisation*: a campaign executed on
// pooled testbeds must be bit-identical to the same campaign run by the
// execute_one() fresh-construction oracle — same run-log lines, same
// outcomes and details, same aggregates — on every scenario, every board
// variant and every thread count. This suite pins that, plus the sweep
// driver's resume byte-identity under pooling (the resume fingerprint
// path must be untouched by the reuse machinery).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "campaign_oracle.hpp"
#include "core/sweep.hpp"

namespace mcs::fi {
namespace {

using oracle::CampaignCapture;
using oracle::executor_campaign;
using oracle::expect_identical;
using oracle::oracle_campaign;

TestPlan reuse_plan(const std::string& scenario, const std::string& board) {
  TestPlan plan = find_scenario(scenario)->make_plan();
  plan.board = board;
  plan.runs = 4;
  plan.duration_ticks = 2'000;
  plan.phase = 2;  // inject early so failure states are actually reached
  return plan;
}

TEST(ReuseEquivalence, PooledMatchesFreshOnEveryScenarioBoardAndThreadCount) {
  // {scenario} × {board} × {1, 4, 8} threads against the execute_one()
  // oracle: one fresh testbed per run, so one baseline per (scenario,
  // board) suffices.
  for (const std::string& scenario : ScenarioRegistry::instance().names()) {
    for (const std::string& board : {std::string("bananapi"), std::string("quad-a7")}) {
      const TestPlan plan = reuse_plan(scenario, board);
      const CampaignCapture fresh = oracle_campaign(plan);
      for (const unsigned threads : {1u, 4u, 8u}) {
        const CampaignCapture pooled = executor_campaign(plan, threads);
        expect_identical(fresh, pooled,
                         scenario + " on " + board + ", " +
                             std::to_string(threads) + " threads");
      }
    }
  }
}

TEST(ReuseEquivalence, PooledCampaignsExerciseFailingRuns) {
  // The identity above is only meaningful if the plans actually reach
  // the failure states whose residue a bad reset would leak.
  const TestPlan plan = reuse_plan("freertos-steady", "bananapi");
  const CampaignCapture pooled = executor_campaign(plan, 1);
  const OutcomeDistribution dist = pooled.result.distribution();
  EXPECT_GT(dist.total() - dist.count(Outcome::Correct), 0u)
      << "plan produced no failures; tighten rate/phase";
}

TEST(ReuseEquivalence, CrossScenarioSlotReuseStaysIdentical) {
  // A slot may be reset and re-booted after a *different* scenario ran on
  // it: run campaign B, reset per run, on a slot dirtied by campaign A and
  // require B to still match its fresh baseline.
  const TestPlan first = reuse_plan("ivshmem-traffic", "quad-a7");
  const TestPlan second = reuse_plan("dual-cell", "quad-a7");
  const CampaignCapture baseline = oracle_campaign(second);
  const CampaignCapture reused = oracle::reset_per_run_campaign(second, first);
  expect_identical(baseline, reused, "dual-cell after ivshmem-traffic slots");
}

// --- sweep resume byte-identity under pooling -------------------------------

std::string render_sweep_report(const SweepResult& sweep) {
  std::vector<analysis::ComparisonColumn> columns;
  columns.reserve(sweep.cells.size());
  for (const SweepCellResult& cell : sweep.cells) {
    columns.push_back({cell.id, cell.aggregate});
  }
  return analysis::render_comparison_report(columns, "reuse-sweep");
}

SweepSpec small_sweep(const std::string& log_dir) {
  SweepSpec spec;
  spec.scenarios = {"freertos-steady", "inject-during-boot"};
  spec.rates = {100, 50};
  spec.runs = 3;
  spec.duration_ticks = 1'500;
  spec.log_dir = log_dir;
  return spec;
}

TEST(ReuseEquivalence, SweepResumeStaysByteIdenticalWithPooling) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "mcs_reuse_sweep";
  std::filesystem::remove_all(dir);

  ExecutorConfig pooled;
  pooled.threads = 2;

  SweepDriver driver(small_sweep(dir.string()), pooled);
  auto first = driver.execute();
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  const std::string fresh_report = render_sweep_report(first.value());

  // Interrupt: drop one cell's log mid-line, delete another's, then
  // resume with a different thread count — the resumed report must be
  // byte-identical, and untouched cells must resume via the fingerprint
  // path (not re-execute).
  const std::string cut = (dir / "freertos-steady_r50.runlog").string();
  {
    std::ifstream in(cut);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str().substr(0, 40);
    std::ofstream out(cut, std::ios::trunc);
    out << text;
  }
  std::filesystem::remove(dir / "freertos-steady_r50.runlog.meta");
  std::filesystem::remove(dir / "inject-during-boot_r100.runlog");

  ExecutorConfig resumer = pooled;
  resumer.threads = 4;
  SweepDriver resume_driver(small_sweep(dir.string()), resumer);
  auto resumed = resume_driver.execute();
  ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
  EXPECT_EQ(resumed.value().resumed, 2u);
  EXPECT_EQ(resumed.value().executed, 2u);
  EXPECT_EQ(render_sweep_report(resumed.value()), fresh_report);

  // And the execute_one() oracle over the same cells agrees byte for byte.
  SweepResult oracle_sweep = first.value();
  for (SweepCellResult& cell : oracle_sweep.cells) {
    cell.aggregate = oracle_campaign(cell.plan).aggregate;
  }
  EXPECT_EQ(render_sweep_report(oracle_sweep), fresh_report);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mcs::fi
