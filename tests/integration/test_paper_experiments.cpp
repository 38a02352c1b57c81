// End-to-end reproduction of the paper's §III experiments, asserted at
// the level the paper reports them. These tests ARE the claims of the
// reproduction; EXPERIMENTS.md cites their numbers.
#include <gtest/gtest.h>

#include "analysis/seooc.hpp"
#include "core/executor.hpp"

namespace mcs::fi {
namespace {

// E2 — "High level intensity faults always return an 'invalid arguments'
// when we target both the arch_handle_hvc() and arch_handle_trap() in the
// context of the root cell; thus, the [non-root] cell will be not
// allocated at all, which is a correct (and expected) behavior."
class HighIntensityRoot : public ::testing::TestWithParam<jh::HookPoint> {};

TEST_P(HighIntensityRoot, AlwaysInvalidArgumentsCellNeverAllocated) {
  TestPlan plan = GetParam() == jh::HookPoint::ArchHandleHvc
                      ? paper_high_root_hvc_plan()
                      : paper_high_root_trap_plan();
  plan.runs = 10;
  plan.duration_ticks = 1'000;
  CampaignExecutor campaign(plan, {1});
  const CampaignResult result = campaign.execute();
  const OutcomeDistribution dist = result.distribution();
  EXPECT_EQ(dist.count(Outcome::InvalidArguments), dist.total());
  for (const RunResult& run : result.runs) {
    EXPECT_FALSE(run.cell_exists);
    // The management sequence reports "invalid arguments": usually at
    // create; when the flipped code lands on another *valid* hypercall
    // (e.g. create→get_info, a one-bit neighbour in the table), the ioctl
    // "succeeds" with a bogus id and the subsequent start fails instead.
    EXPECT_TRUE(jh::is_invalid_arguments(run.create_result) ||
                jh::is_invalid_arguments(run.start_result));
    EXPECT_GE(run.injections, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(BothTargets, HighIntensityRoot,
                         ::testing::Values(jh::HookPoint::ArchHandleHvc,
                                           jh::HookPoint::ArchHandleTrap));

// E3 — "when we filter the injection to activate only when the CPU core 1
// is calling the function, the result is pretty peculiar, although wrong
// and inconsistent: the cell is allocated but [...] the non-root cell
// doesn't do anything, as attested by the USART output left completely
// blank. Nonetheless, it is considered running by Jailhouse, and the
// shutdown of the cell gives the control of the CPU and the non-root cell
// peripherals back to the root cell."
TEST(HighIntensityNonRoot, InconsistentAllocatedButDeadCell) {
  TestPlan plan = paper_high_nonroot_plan();
  plan.runs = 10;
  plan.duration_ticks = 1'000;
  CampaignExecutor campaign(plan, {1});
  const CampaignResult result = campaign.execute();
  const OutcomeDistribution dist = result.distribution();
  EXPECT_EQ(dist.count(Outcome::InconsistentCell), dist.total());
  for (const RunResult& run : result.runs) {
    EXPECT_TRUE(run.cell_exists);               // allocated
    EXPECT_EQ(run.create_result, 1);            // create succeeded
    EXPECT_EQ(run.start_result, 0);             // start "succeeded"
    EXPECT_LT(run.uart1_bytes, 8u);             // USART effectively blank
    EXPECT_TRUE(run.shutdown_reclaimed);        // shutdown still recovers
  }
}

TEST(HighIntensityNonRoot, DestroyAndRecreateFixesTheCell) {
  // "only destroying the cell and reallocating it fixes the problem."
  TestPlan plan = paper_high_nonroot_plan();
  CampaignExecutor campaign(plan, {1});
  (void)campaign;  // the sequence below replays one run manually
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  Injector injector(plan, 42, testbed.board().clock());
  injector.attach(testbed.hypervisor());
  testbed.boot_freertos_cell();
  ASSERT_EQ(testbed.board().cpu(1).power_state(), arch::PowerState::Failed);
  // Recover: detach faults, destroy, recreate — the cell must boot.
  injector.detach(testbed.hypervisor());
  testbed.destroy_freertos_cell();
  Testbed fresh;
  ASSERT_TRUE(fresh.enable_hypervisor().is_ok());
  fresh.boot_freertos_cell();
  fresh.run(100);
  EXPECT_TRUE(fresh.board().cpu(1).is_online());
  EXPECT_GT(fresh.board().uart1().total_bytes(), 0u);
}

// E1 / Figure 3 — medium intensity on the non-root trap path: the cell
// behaves correctly in the majority of runs, panic park is the dominant
// failure (~30 %), cpu park a limited share.
TEST(MediumIntensityFigure3, ShapeMatchesThePaper) {
  TestPlan plan = paper_medium_trap_plan();
  plan.runs = 60;  // enough for a stable shape in CI time
  CampaignExecutor campaign(plan, {1});
  const CampaignResult result = campaign.execute();
  const OutcomeDistribution dist = result.distribution();

  const double correct = dist.fraction(Outcome::Correct);
  const double panic = dist.fraction(Outcome::PanicPark);
  const double park = dist.fraction(Outcome::CpuPark);

  // Majority correct.
  EXPECT_GT(correct, 0.5);
  // Panic park ≈ 30 % (paper): allow a generous band.
  EXPECT_GT(panic, 0.15);
  EXPECT_LT(panic, 0.45);
  // CPU park limited but present over 60 runs... allow zero-to-small.
  EXPECT_LT(park, 0.20);
  // Nothing silent, nothing inconsistent in the medium scenario.
  EXPECT_EQ(dist.count(Outcome::SilentHang), 0u);
  EXPECT_EQ(dist.count(Outcome::InconsistentCell), 0u);
}

TEST(MediumIntensityFigure3, FailuresAreDetectedImmediately) {
  TestPlan plan = paper_medium_trap_plan();
  plan.runs = 20;
  CampaignExecutor campaign(plan, {1});
  const CampaignResult result = campaign.execute();
  for (const RunResult& run : result.runs) {
    if (run.outcome == Outcome::PanicPark || run.outcome == Outcome::CpuPark) {
      EXPECT_TRUE(run.failure_detected());
      // Register corruption is consumed by the handler in the same tick.
      EXPECT_LE(run.detection_latency(), 5u);
    }
  }
}

// E4 — the profiling rationale for excluding irqchip_handle_irq: "the
// only parameter passed is the IRQ vector number, and manumitting it
// means calling a different IRQ function, defaulting to an IRQ error,
// which is completely predictable and correct behavior."
TEST(IrqVectorCorruption, AlwaysPredictableNeverFatal) {
  TestPlan plan = irq_vector_plan();
  plan.runs = 15;
  plan.duration_ticks = 5'000;
  CampaignExecutor campaign(plan, {1});
  const CampaignResult result = campaign.execute();
  const OutcomeDistribution dist = result.distribution();
  // Every run survives: corrupted vectors land in benign error paths.
  EXPECT_EQ(dist.count(Outcome::Correct), dist.total());
  for (const RunResult& run : result.runs) {
    EXPECT_GE(run.injections, 1u);
  }
}

// The assembled SEooC verdict over the three paper campaigns.
TEST(SeoocEvidence, PaperCampaignsYieldTheExpectedAssessment) {
  const auto shrink = [](TestPlan plan, std::uint32_t runs,
                         std::uint64_t ticks) {
    plan.runs = runs;
    plan.duration_ticks = ticks;
    return plan;
  };
  const CampaignResult medium =
      CampaignExecutor(shrink(paper_medium_trap_plan(), 25, kOneMinuteTicks), {1}).execute();
  const CampaignResult high_root =
      CampaignExecutor(shrink(paper_high_root_hvc_plan(), 8, 1'000), {1}).execute();
  const CampaignResult high_nonroot =
      CampaignExecutor(shrink(paper_high_nonroot_plan(), 8, 1'000), {1}).execute();

  const analysis::SeoocReport report =
      analysis::build_seooc_report(medium, high_root, high_nonroot);
  ASSERT_EQ(report.claims.size(), 3u);
  EXPECT_EQ(report.claims[0].verdict, analysis::ClaimVerdict::Supported);
  EXPECT_EQ(report.claims[1].verdict, analysis::ClaimVerdict::Supported);
  EXPECT_EQ(report.claims[2].verdict, analysis::ClaimVerdict::Supported);
  EXPECT_FALSE(report.residual_risks.empty());  // the paper's findings
}

}  // namespace
}  // namespace mcs::fi
