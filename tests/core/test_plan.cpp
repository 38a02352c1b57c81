#include "core/plan.hpp"

#include <gtest/gtest.h>

namespace mcs::fi {
namespace {

TEST(Plan, PaperMediumPreset) {
  // "once every 100 function calls [...] each test lasts 1 min", single
  // register, non-root cell CPU 1, arch_handle_trap.
  const TestPlan plan = paper_medium_trap_plan();
  EXPECT_EQ(plan.rate, 100u);
  EXPECT_EQ(plan.duration_ticks, 60'000u);
  EXPECT_EQ(plan.fault, FaultModelKind::SingleBitFlip);
  EXPECT_EQ(plan.target, jh::HookPoint::ArchHandleTrap);
  EXPECT_EQ(plan.cpu_filter, 1);
  EXPECT_FALSE(plan.inject_during_boot);
}

TEST(Plan, PaperHighRootPresets) {
  // "once every 50 function calls" for high intensity, multiple registers.
  const TestPlan hvc = paper_high_root_hvc_plan();
  EXPECT_EQ(hvc.rate, 50u);
  EXPECT_EQ(hvc.fault, FaultModelKind::MultiRegisterFlip);
  EXPECT_EQ(hvc.target, jh::HookPoint::ArchHandleHvc);
  EXPECT_EQ(hvc.cpu_filter, 0);
  EXPECT_TRUE(hvc.inject_during_boot);

  const TestPlan trap = paper_high_root_trap_plan();
  EXPECT_EQ(trap.target, jh::HookPoint::ArchHandleTrap);
  EXPECT_EQ(trap.rate, 50u);
}

TEST(Plan, PaperHighNonRootPreset) {
  const TestPlan plan = paper_high_nonroot_plan();
  EXPECT_EQ(plan.cpu_filter, 1);
  EXPECT_EQ(plan.phase, 1u);  // armed for the first CPU 1 entry (bring-up)
  EXPECT_TRUE(plan.inject_during_boot);
}

TEST(Plan, IrqVectorPresetTargetsR0Only) {
  const TestPlan plan = irq_vector_plan();
  EXPECT_EQ(plan.target, jh::HookPoint::IrqchipHandleIrq);
  ASSERT_EQ(plan.fault_registers.size(), 1u);
  EXPECT_EQ(plan.fault_registers[0], arch::Reg::R0);
}

TEST(Plan, FirstInjectionCallDefaultsToRate) {
  TestPlan plan;
  plan.rate = 100;
  plan.phase = 0;
  EXPECT_EQ(plan.first_injection_call(), 100u);
  plan.phase = 7;
  EXPECT_EQ(plan.first_injection_call(), 7u);
}

TEST(Plan, PaperRateConstants) {
  EXPECT_EQ(kMediumRate, 100u);
  EXPECT_EQ(kHighRate, 50u);
  EXPECT_EQ(kOneMinuteTicks, 60'000u);
}

}  // namespace
}  // namespace mcs::fi
