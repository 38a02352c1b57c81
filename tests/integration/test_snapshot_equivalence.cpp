// Snapshot equivalence for the warm-start campaign executor.
//
// Boot-once/restore-per-run may only ever be an *optimisation*: a
// campaign whose runs are provisioned by TestbedSnapshot restore must be
// bit-identical to the same campaign run by the execute_one()
// fresh-construction oracle and by reset + reboot per run — same run-log
// lines, same outcomes and details, same aggregates — on every scenario,
// every board variant and every thread count. This suite pins that,
// checks the restore path is actually exercised (not silently falling
// back to reset + boot), and pins the sweep driver's interrupt/resume
// byte-identity against the oracle.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "campaign_oracle.hpp"
#include "core/injection_target.hpp"
#include "core/sweep.hpp"
#include "hypervisor/cell_config.hpp"

namespace mcs::fi {
namespace {

using oracle::CampaignCapture;
using oracle::executor_campaign;
using oracle::expect_identical;
using oracle::oracle_campaign;

TestPlan snapshot_plan(const std::string& scenario, const std::string& board) {
  TestPlan plan = find_scenario(scenario)->make_plan();
  plan.board = board;
  plan.runs = 4;
  plan.duration_ticks = 2'000;
  plan.phase = 2;  // inject early so failure states are actually reached
  return plan;
}

TEST(SnapshotEquivalence, RestoredMatchesFreshOnEveryScenarioBoardAndThreadCount) {
  // {scenario} × {board} × {1, 4, 8} threads against the execute_one()
  // oracle: one fresh testbed per run, so one baseline per (scenario,
  // board) suffices.
  for (const std::string& scenario : ScenarioRegistry::instance().names()) {
    for (const std::string& board : {std::string("bananapi"), std::string("quad-a7")}) {
      const TestPlan plan = snapshot_plan(scenario, board);
      const CampaignCapture fresh = oracle_campaign(plan);
      for (const unsigned threads : {1u, 4u, 8u}) {
        const CampaignCapture warm = executor_campaign(plan, threads);
        expect_identical(fresh, warm,
                         scenario + " on " + board + ", " +
                             std::to_string(threads) + " threads");
      }
    }
  }
}

TEST(SnapshotEquivalence, RestoredMatchesPooledResetPerRun) {
  // Restore-per-run and reset + reboot per run (on a slot another
  // scenario dirtied first) must both match the oracle, the former at
  // every thread width.
  for (const std::string& scenario :
       {std::string("freertos-steady"), std::string("osek-cell")}) {
    const TestPlan plan = snapshot_plan(scenario, "bananapi");
    const TestPlan other = snapshot_plan(
        scenario == "osek-cell" ? "freertos-steady" : "osek-cell", "bananapi");
    const CampaignCapture fresh = oracle_campaign(plan);
    expect_identical(fresh, oracle::reset_per_run_campaign(plan, other),
                     scenario + " reset per run");
    for (const unsigned threads : {1u, 4u, 8u}) {
      expect_identical(fresh, executor_campaign(plan, threads),
                       scenario + " restored, " + std::to_string(threads) +
                           " threads");
    }
  }
}

TEST(SnapshotEquivalence, SteadyScenariosActuallyRestore) {
  // The identity above is vacuous if every run silently falls back to
  // reset + boot: require the pool to report restores, and more restores
  // than full resets for a steady single-slot campaign (boot once,
  // restore plan.runs - 1 times). Start from an empty pool: a warm slot
  // parked by an earlier test would already hold the snapshot.
  TestbedPool::instance().clear();
  const TestbedPool::Stats before = TestbedPool::instance().stats();
  TestPlan plan = snapshot_plan("freertos-steady", "bananapi");
  plan.runs = 6;
  (void)executor_campaign(plan, 1);
  const TestbedPool::Stats after = TestbedPool::instance().stats();
  EXPECT_GE(after.captures, before.captures + 1);
  EXPECT_GE(after.run_restores, before.run_restores + plan.runs - 1);
  EXPECT_GT(after.snapshot_bytes, 0u);
  EXPECT_GT(after.dirty_pages, 0u);
}

TEST(SnapshotEquivalence, InjectDuringBootNeverRestores) {
  // Scenarios that inject during boot are snapshot-ineligible: the
  // injected boot *is* the experiment. Every run must be a full reset.
  const TestbedPool::Stats before = TestbedPool::instance().stats();
  const TestPlan plan = snapshot_plan("inject-during-boot", "bananapi");
  (void)executor_campaign(plan, 1);
  const TestbedPool::Stats after = TestbedPool::instance().stats();
  EXPECT_EQ(after.run_restores, before.run_restores);
  EXPECT_GE(after.run_resets, before.run_resets + plan.runs);
}

TEST(SnapshotEquivalence, SnapshotCampaignsExerciseFailingRuns) {
  // The identity is only meaningful if the plans actually reach the
  // failure states whose residue a bad restore would leak.
  const TestPlan plan = snapshot_plan("freertos-steady", "bananapi");
  const CampaignCapture warm = executor_campaign(plan, 1);
  const OutcomeDistribution dist = warm.result.distribution();
  EXPECT_GT(dist.total() - dist.count(Outcome::Correct), 0u)
      << "plan produced no failures; tighten rate/phase";
}

TEST(SnapshotEquivalence, DomainFaultCampaignsRestoreIdentically) {
  // The unified injection layer: every non-register fault domain, the
  // execute_one() oracle vs snapshot restore at {1, 4, 8} threads. A
  // restore that leaked injected GIC/device/DRAM state into the next run
  // breaks the bit-identity here.
  for (const auto domain : {FaultDomain::Gic, FaultDomain::IrqDelivery,
                            FaultDomain::DeviceMmio, FaultDomain::Dram}) {
    TestPlan plan = snapshot_plan("freertos-steady", "bananapi");
    plan.fault_domain = domain;
    const std::string label(fault_domain_name(domain));
    const CampaignCapture fresh = oracle_campaign(plan);
    for (const unsigned threads : {1u, 4u, 8u}) {
      const CampaignCapture warm = executor_campaign(plan, threads);
      expect_identical(fresh, warm,
                       label + " domain, " + std::to_string(threads) +
                           " threads");
    }
  }
}

TEST(SnapshotEquivalence, DomainTuningSelectsTheDomainThroughTheExecutor) {
  // The config-text path: `fault domain gic` in the cell tuning must be
  // equivalent to setting the plan field directly — same runs, same
  // domain-tagged log lines.
  TestPlan direct = snapshot_plan("freertos-steady", "bananapi");
  direct.fault_domain = FaultDomain::Gic;
  TestPlan tuned = snapshot_plan("freertos-steady", "bananapi");
  tuned.cell_tuning = "fault domain gic";
  const CampaignCapture a = oracle_campaign(direct);
  const CampaignCapture b = oracle_campaign(tuned);
  EXPECT_EQ(a.log_text, b.log_text);
  EXPECT_NE(a.log_text.find("domain=gic"), std::string::npos);

  // An unknown domain name in the tuning is a HarnessError, not UB.
  TestPlan bad = snapshot_plan("freertos-steady", "bananapi");
  bad.cell_tuning = "fault domain warp-core";
  const CampaignCapture broken = oracle_campaign(bad);
  EXPECT_EQ(broken.result.distribution().count(Outcome::HarnessError),
            broken.result.runs.size());
}

TEST(SnapshotEquivalence, DramFaultsNeverSurviveRestore) {
  // Satellite of the DRAM domain: injected bits go through
  // PhysicalMemory::write_u8, so they dirty-mark their pages and
  // Testbed::restore_snapshot() reverts every one of them.
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  testbed.run(500);
  testbed.capture_snapshot("dram-domain-revert");

  util::Xoshiro256 rng(9);
  std::vector<FaultRecord> flips;
  for (int i = 0; i < 32; ++i) {
    flips.push_back(inject_dram_fault(rng, testbed.board().dram(),
                                      jh::kFreeRtosRamBase, 0x10'0000));
  }
  // Every flip is visible pre-restore (walk in reverse: the last write
  // to an address wins).
  for (auto it = flips.rbegin(); it != flips.rend(); ++it) {
    EXPECT_EQ(testbed.board().dram().read_u8(it->addr).value(), it->after);
    break;
  }

  ASSERT_TRUE(testbed.restore_snapshot());
  // The first flip at each address recorded the pristine byte; after
  // restore, that is exactly what must be there again.
  std::vector<std::uint64_t> seen;
  for (const FaultRecord& flip : flips) {
    bool first = true;
    for (const std::uint64_t addr : seen) first = first && addr != flip.addr;
    if (!first) continue;
    seen.push_back(flip.addr);
    EXPECT_EQ(testbed.board().dram().read_u8(flip.addr).value(), flip.before)
        << std::hex << flip.addr;
  }
}

// --- sweep resume byte-identity against the oracle ---------------------------

std::string render_sweep_report(const SweepResult& sweep) {
  std::vector<analysis::ComparisonColumn> columns;
  columns.reserve(sweep.cells.size());
  for (const SweepCellResult& cell : sweep.cells) {
    columns.push_back({cell.id, cell.aggregate});
  }
  return analysis::render_comparison_report(columns, "snapshot-sweep");
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

TEST(SnapshotEquivalence, SweepResumeStaysByteIdenticalWithSnapshots) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "mcs_snapshot_sweep";
  std::filesystem::remove_all(dir);

  ExecutorConfig warm;
  warm.threads = 2;

  SweepDriver driver(small_sweep(dir.string()), warm);
  auto first = driver.execute();
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  const std::string warm_report = render_sweep_report(first.value());

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

  ExecutorConfig resumer = warm;
  resumer.threads = 4;
  SweepDriver resume_driver(small_sweep(dir.string()), resumer);
  auto resumed = resume_driver.execute();
  ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
  EXPECT_EQ(resumed.value().resumed, 2u);
  EXPECT_EQ(resumed.value().executed, 2u);
  EXPECT_EQ(render_sweep_report(resumed.value()), warm_report);

  // The execute_one() oracle over the same cells agrees byte for byte.
  SweepResult oracle_sweep = first.value();
  for (SweepCellResult& cell : oracle_sweep.cells) {
    cell.aggregate = oracle_campaign(cell.plan).aggregate;
  }
  EXPECT_EQ(render_sweep_report(oracle_sweep), warm_report);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mcs::fi
