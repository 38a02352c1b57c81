#include <gtest/gtest.h>

#include "core/executor.hpp"
#include "core/injection_target.hpp"
#include "core/testbed.hpp"
#include "guests/freertos_image.hpp"
#include "hypervisor/cell_config.hpp"

namespace mcs::fi {
namespace {

TEST(DramFault, FlipsExactlyOneBitInWindow) {
  mem::PhysicalMemory dram;
  util::Xoshiro256 rng(7);
  for (int i = 0; i < 100; ++i) {
    const FaultRecord record =
        inject_dram_fault(rng, dram, mem::kDramBase, 0x1000);
    EXPECT_EQ(record.domain, FaultDomain::Dram);
    EXPECT_GE(record.addr, mem::kDramBase);
    EXPECT_LT(record.addr, mem::kDramBase + 0x1000);
    EXPECT_EQ(record.after, record.before ^ (1u << record.bit));
    EXPECT_EQ(dram.read_u8(record.addr).value(), record.after);
  }
}

TEST(DramFault, DoubleFlipOfSameBitRestores) {
  mem::PhysicalMemory dram;
  (void)dram.write_u8(mem::kDramBase, 0xA5);
  util::Xoshiro256 rng(1);
  const FaultRecord first = inject_dram_fault(rng, dram, mem::kDramBase, 1);
  // Window is a single byte; undo by writing the recorded before-value.
  (void)dram.write_u8(first.addr, static_cast<std::uint8_t>(first.before));
  EXPECT_EQ(dram.read_u8(mem::kDramBase).value(), 0xA5);
}

TEST(DramFault, DeterministicForSeed) {
  mem::PhysicalMemory dram_a, dram_b;
  util::Xoshiro256 rng_a(99), rng_b(99);
  for (int i = 0; i < 50; ++i) {
    const FaultRecord ra =
        inject_dram_fault(rng_a, dram_a, mem::kDramBase, 0x10000);
    const FaultRecord rb =
        inject_dram_fault(rng_b, dram_b, mem::kDramBase, 0x10000);
    EXPECT_EQ(ra.addr, rb.addr);
    EXPECT_EQ(ra.bit, rb.bit);
  }
}

TEST(DramFault, WritesMarkPagesDirty) {
  mem::PhysicalMemory dram;
  const std::uint64_t dirty_before = dram.dirty_pages();
  util::Xoshiro256 rng(3);
  (void)inject_dram_fault(rng, dram, mem::kDramBase, 0x1000);
  // The flip went through write_u8, so the touched page is dirty — the
  // property snapshot restore relies on to revert injected DRAM state.
  EXPECT_GT(dram.dirty_pages(), dirty_before);
}

TEST(MemoryFaultCampaign, TargetedFlipIsDetectedByDualStorage) {
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  testbed.run(500);  // seed the state block
  ASSERT_EQ(testbed.freertos().data_errors(), 0u);

  // Corrupt one primary hash word directly in DRAM.
  const std::uint64_t victim = guest::FreeRtosImage::kStateBase + 3 * 4;
  auto before = testbed.board().dram().read_u32(victim);
  ASSERT_TRUE(before.is_ok());
  ASSERT_NE(before.value(), 0u);  // state was seeded
  (void)testbed.board().dram().write_u32(victim, before.value() ^ 0x40);

  testbed.run(2'000);
  EXPECT_GE(testbed.freertos().data_errors(), 1u);
  EXPECT_NE(testbed.board().uart1().captured().find("MISMATCH"),
            std::string::npos);
  // Detection, not crash: the cell keeps running.
  EXPECT_TRUE(testbed.board().cpu(1).is_online());
  EXPECT_FALSE(testbed.hypervisor().is_panicked());
}

TEST(MemoryFaultCampaign, ColdMemoryFlipsAreAbsorbed) {
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  testbed.run(500);
  // Flip bits far away from any live state.
  util::Xoshiro256 rng(5);
  for (int i = 0; i < 50; ++i) {
    (void)inject_dram_fault(rng, testbed.board().dram(),
                            jh::kFreeRtosRamBase + 0x80'0000, 0x10'0000);
  }
  testbed.run(2'000);
  EXPECT_EQ(testbed.freertos().data_errors(), 0u);
  EXPECT_TRUE(testbed.board().cpu(1).is_online());
}

TEST(MemoryFaultCampaign, WorkloadRecoversAfterDetection) {
  Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  testbed.boot_freertos_cell();
  testbed.run(500);
  const std::uint64_t victim = guest::FreeRtosImage::kShadowBase + 7 * 4;
  auto word = testbed.board().dram().read_u32(victim);
  ASSERT_TRUE(word.is_ok());
  (void)testbed.board().dram().write_u32(victim, word.value() ^ 1);
  testbed.run(1'000);
  const std::uint64_t errors_at_detection = testbed.freertos().data_errors();
  EXPECT_GE(errors_at_detection, 1u);
  // The task rewrites both copies; no further mismatches accumulate.
  testbed.run(3'000);
  EXPECT_EQ(testbed.freertos().data_errors(), errors_at_detection);
}

// Uniform flips over the whole cell RAM, through the campaign path: the
// dram fault domain on freertos-steady. Almost all of the RAM is cold,
// and a flip the workload does read is caught by its own checks, so no
// run ever fails at the hypervisor level.
TEST(MemoryFaultCampaign, UniformFlipsNeverFailTheHypervisor) {
  TestPlan plan;
  plan.fault_domain = FaultDomain::Dram;
  plan.rate = 100;
  plan.runs = 10;
  const CampaignResult result = CampaignExecutor(plan, {2}).execute();
  const OutcomeDistribution dist = result.distribution();
  ASSERT_EQ(dist.total(), 10u);
  EXPECT_EQ(dist.count(Outcome::PanicPark), 0u);
  EXPECT_EQ(dist.count(Outcome::CpuPark), 0u);
  for (const RunResult& run : result.runs) {
    EXPECT_GE(run.injections, 1u);
  }
}

}  // namespace
}  // namespace mcs::fi
