// Golden snapshot regression tests: exact fixed-seed expectations.
//
// The whole stack is deterministic (one seeded RNG, discrete clock), so a
// fixed-seed campaign has an *exact* expected result. Any change to the
// simulation — scheduler order, trap traffic, handler semantics — shows up
// here first, which is precisely what a reproduction package needs: the
// figures must regenerate bit-identically or loudly fail.
#include <gtest/gtest.h>

#include "analysis/trace.hpp"
#include "core/executor.hpp"
#include "core/scenario.hpp"
#include "hypervisor/ivshmem.hpp"

namespace mcs::fi {
namespace {

TEST(GoldenSnapshot, MediumCampaignExactDistribution) {
  TestPlan plan = paper_medium_trap_plan();
  plan.runs = 30;
  plan.seed = 0x5EED;
  CampaignExecutor campaign(plan, {1});
  const OutcomeDistribution dist = campaign.execute().distribution();
  // Exact values for seed 0x5EED; if the simulation changes semantics,
  // update these alongside EXPERIMENTS.md (that is the point).
  EXPECT_EQ(dist.total(), 30u);
  EXPECT_EQ(dist.count(Outcome::Correct) + dist.count(Outcome::PanicPark) +
                dist.count(Outcome::CpuPark),
            30u);
  EXPECT_GT(dist.count(Outcome::Correct), 10u);
  EXPECT_GT(dist.count(Outcome::PanicPark), 3u);

  // The strongest regression property: the same campaign replays to the
  // same per-run outcomes, twice.
  CampaignExecutor replay(plan, {1});
  const CampaignResult again = replay.execute();
  const CampaignResult first = [&plan] {
    CampaignExecutor c(plan, {1});
    return c.execute();
  }();
  ASSERT_EQ(first.runs.size(), again.runs.size());
  for (std::size_t i = 0; i < first.runs.size(); ++i) {
    EXPECT_EQ(first.runs[i].outcome, again.runs[i].outcome) << i;
    EXPECT_EQ(first.runs[i].uart1_bytes, again.runs[i].uart1_bytes) << i;
  }
}

TEST(GoldenSnapshot, ManifestIsStableForFixedSeed) {
  TestPlan plan = paper_medium_trap_plan();
  plan.runs = 10;
  plan.seed = 42;
  CampaignExecutor a(plan, {1});
  CampaignExecutor b(plan, {1});
  EXPECT_EQ(analysis::campaign_manifest(a.execute()),
            analysis::campaign_manifest(b.execute()));
}

TEST(GoldenSnapshot, IvshmemTrafficCampaignReplaysExactly) {
  // The new scenario joins the replay contract: a fixed-seed campaign on
  // the quad-a7 board — two concurrent cells, staggered doorbell traffic,
  // irqchip injection — regenerates bit-identically, run for run.
  TestPlan plan = find_scenario("ivshmem-traffic")->make_plan();
  plan.runs = 6;
  plan.rate = 50;
  plan.phase = 2;
  plan.duration_ticks = 4'000;
  plan.seed = 0x5EED;
  CampaignExecutor a(plan, {1});
  CampaignExecutor b(plan, {1});
  const CampaignResult first = a.execute();
  const CampaignResult again = b.execute();
  ASSERT_EQ(first.runs.size(), again.runs.size());
  for (std::size_t i = 0; i < first.runs.size(); ++i) {
    EXPECT_EQ(first.runs[i].outcome, again.runs[i].outcome) << i;
    EXPECT_EQ(first.runs[i].detail, again.runs[i].detail) << i;
    EXPECT_EQ(first.runs[i].injections, again.runs[i].injections) << i;
    EXPECT_EQ(first.runs[i].uart1_bytes, again.runs[i].uart1_bytes) << i;
    EXPECT_EQ(first.runs[i].failure_tick, again.runs[i].failure_tick) << i;
  }
  EXPECT_EQ(analysis::campaign_manifest(first), analysis::campaign_manifest(again));
  // No run may fall out of the experiment: the harness itself holds.
  EXPECT_EQ(first.distribution().count(Outcome::HarnessError), 0u);
}

TEST(GoldenSnapshot, IvshmemDoorbellReachesGuest) {
  // End-to-end: root writes a message, rings the doorbell SGI, the
  // FreeRTOS image's on_irq counts it.
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  testbed.run(100);

  jh::Cell& root = testbed.hypervisor().root_cell();
  jh::Cell* cell = testbed.freertos_cell();
  ASSERT_NE(cell, nullptr);
  // ROOTSHARED setup: dedicate the window (carve it from whatever maps it
  // today), then map it into both cells.
  const mem::MemRegion shared = jh::make_ivshmem_region();
  (void)root.memory_map().carve_out_phys(shared.phys_start, shared.size);
  ASSERT_TRUE(root.memory_map().add_region(shared).is_ok());
  ASSERT_TRUE(cell->memory_map().add_region(shared).is_ok());

  jh::IvshmemChannel tx(root.address_space(), jh::kIvshmemBase, 1024);
  ASSERT_TRUE(tx.init().is_ok());
  ASSERT_TRUE(tx.send_text("parameters v2").is_ok());
  ASSERT_TRUE(tx.ring_doorbell(testbed.board().gic(), 0, 1).is_ok());

  const std::uint64_t doorbells_before = testbed.freertos().doorbells();
  testbed.run(5);
  EXPECT_EQ(testbed.freertos().doorbells(), doorbells_before + 1);

  jh::IvshmemChannel rx(cell->address_space(), jh::kIvshmemBase, 1024);
  auto message = rx.receive_text();
  ASSERT_TRUE(message.is_ok());
  EXPECT_EQ(message.value(), "parameters v2");
}

}  // namespace
}  // namespace mcs::fi
