// The isolation invariant the whole SEooC argument rests on, asserted as
// a property under randomized fault sweeps: whatever faults are injected
// into the non-root cell's hypervisor entries, the root cell's memory is
// never silently corrupted, and every system-level failure is an explicit
// detected panic.
#include <gtest/gtest.h>

#include "core/executor.hpp"

namespace mcs::fi {
namespace {

/// Pattern written into root memory before the storm; verified after.
constexpr std::uint32_t kCanary = 0x5AFE'C0DE;
constexpr std::uint64_t kCanaryBase = 0x5000'0000;  // root RAM, not loaned
constexpr int kCanaryWords = 64;

void plant_canaries(Testbed& testbed) {
  auto& root = testbed.hypervisor().root_cell();
  for (int i = 0; i < kCanaryWords; ++i) {
    ASSERT_TRUE(root.address_space()
                    .write_u32(kCanaryBase + static_cast<std::uint64_t>(i) * 4,
                               kCanary + static_cast<std::uint32_t>(i))
                    .is_ok());
  }
}

bool canaries_intact(Testbed& testbed) {
  auto& root = testbed.hypervisor().root_cell();
  for (int i = 0; i < kCanaryWords; ++i) {
    auto value =
        root.address_space().read_u32(kCanaryBase + static_cast<std::uint64_t>(i) * 4);
    if (!value.is_ok() ||
        value.value() != kCanary + static_cast<std::uint32_t>(i)) {
      return false;
    }
  }
  return true;
}

class IsolationSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IsolationSweep, RootMemoryNeverSilentlyCorrupted) {
  TestPlan plan = paper_medium_trap_plan();
  plan.seed = GetParam();
  plan.rate = 20;       // much more aggressive than the paper
  plan.phase = 1;
  plan.duration_ticks = 5'000;

  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  plant_canaries(testbed);

  Injector injector(plan, plan.seed, testbed.board().clock());
  injector.attach(testbed.hypervisor());
  testbed.run(plan.duration_ticks);
  injector.detach(testbed.hypervisor());

  // Whatever happened — panic, park, or survival — the root cell's
  // memory is exactly as written.
  EXPECT_TRUE(canaries_intact(testbed));
  // And if the root cell stopped, it stopped *detectably*.
  if (!testbed.board().cpu(0).is_online()) {
    EXPECT_TRUE(testbed.hypervisor().is_panicked());
    EXPECT_FALSE(testbed.hypervisor().panic_reason().empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IsolationSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

class NonRootConfinement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NonRootConfinement, CpuParkNeverTakesDownTheRoot) {
  // Force the CPU-park path deterministically: corrupt only the fault
  // address register (r2) on data aborts — unhandled MMIO, class 0x24.
  TestPlan plan = paper_medium_trap_plan();
  plan.seed = GetParam();
  plan.fault_registers = {arch::Reg::R2};
  plan.rate = 5;
  plan.phase = 1;
  plan.duration_ticks = 8'000;

  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  Injector injector(plan, plan.seed, testbed.board().clock());
  injector.attach(testbed.hypervisor());
  testbed.run(plan.duration_ticks);
  injector.detach(testbed.hypervisor());

  EXPECT_FALSE(testbed.hypervisor().is_panicked());
  EXPECT_TRUE(testbed.board().cpu(0).is_online());
  if (testbed.board().cpu(1).is_parked()) {
    // The park is logged with its class, and recovery works (§III).
    EXPECT_TRUE(testbed.board().log().contains("hypervisor", "unhandled trap"));
    EXPECT_TRUE(probe_shutdown_reclaims(testbed));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NonRootConfinement,
                         ::testing::Values(101, 202, 303, 404, 505));

class DeadRegisterSweep
    : public ::testing::TestWithParam<std::tuple<arch::Reg, std::uint64_t>> {};

TEST_P(DeadRegisterSweep, DeadRegisterFaultsAreAlwaysBenign) {
  // r5-r11 are architecturally dead at every hypervisor entry; campaigns
  // restricted to them must be indistinguishable from golden runs.
  const auto [reg, seed] = GetParam();
  TestPlan plan = paper_medium_trap_plan();
  plan.fault_registers = {reg};
  plan.seed = seed;
  plan.rate = 3;  // hammer every third call
  plan.phase = 1;
  plan.duration_ticks = 30'000;
  plan.runs = 1;

  CampaignExecutor campaign(plan, {1});
  const CampaignResult result = campaign.execute();
  ASSERT_EQ(result.runs.size(), 1u);
  EXPECT_EQ(result.runs[0].outcome, Outcome::Correct);
  EXPECT_GE(result.runs[0].injections, 10u);
}

INSTANTIATE_TEST_SUITE_P(
    RegsAndSeeds, DeadRegisterSweep,
    ::testing::Combine(::testing::Values(arch::Reg::R5, arch::Reg::R6,
                                         arch::Reg::R7, arch::Reg::R8,
                                         arch::Reg::R9, arch::Reg::R10,
                                         arch::Reg::R11),
                       ::testing::Values(1u, 2u)));

TEST(IsolationInvariant, NonRootCellCannotManageCells) {
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  // A malicious/faulty guest in the non-root cell tries management.
  const jh::HvcResult destroy = testbed.hypervisor().guest_hypercall(
      1, static_cast<std::uint32_t>(jh::Hypercall::CellDestroy),
      testbed.freertos_cell_id());
  EXPECT_EQ(destroy, jh::kHvcEPerm);
  EXPECT_NE(testbed.freertos_cell(), nullptr);
}

TEST(IsolationInvariant, NonRootCellCannotReachRootMemory) {
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  jh::Cell* cell = testbed.freertos_cell();
  ASSERT_NE(cell, nullptr);
  // Direct stage-2-checked access to root RAM fails...
  EXPECT_FALSE(cell->address_space().write_u32(0x5000'0000, 0xEE11).is_ok());
}

}  // namespace
}  // namespace mcs::fi
