// Stage-2 MMIO emulation: trapped console and the virtualised GIC
// distributor, exercised through guest_data_abort (the real entry path).
#include <gtest/gtest.h>

#include "hypervisor/hypervisor.hpp"

namespace mcs::jh {
namespace {

constexpr std::uint64_t kConfigAddr = 0x4800'0000;

class MmioTest : public ::testing::Test {
 protected:
  MmioTest() : hv_(board_) {}

  void SetUp() override {
    ASSERT_TRUE(hv_.enable(make_root_cell_config()).is_ok());
    // A trapped-console variant of the FreeRTOS cell: no UART1 window, so
    // every console byte data-aborts into the hypervisor.
    CellConfig config = make_freertos_cell_config();
    config.console.kind = ConsoleKind::Trapped;
    std::erase_if(config.mem_regions,
                  [](const mem::MemRegion& r) { return r.name == "uart1"; });
    hv_.register_config(kConfigAddr, config);
    const HvcResult id = hv_.guest_hypercall(
        0, static_cast<std::uint32_t>(Hypercall::CellCreate), kConfigAddr);
    ASSERT_GT(id, 0);
    cell_id_ = static_cast<CellId>(id);
    ASSERT_EQ(hv_.guest_hypercall(
                  0, static_cast<std::uint32_t>(Hypercall::CellStart), cell_id_),
              0);
    hv_.cpu_bringup_entry(1);
    ASSERT_TRUE(board_.cpu(1).is_online());
  }

  platform::BananaPiBoard board_;
  Hypervisor hv_;
  CellId cell_id_ = 0;
};

TEST_F(MmioTest, TrappedConsoleWriteReachesUart1) {
  const TrapOutcome outcome = hv_.guest_data_abort(
      1, platform::kUart1Base + platform::kUartThr, 'Z', true);
  EXPECT_EQ(outcome.action, TrapAction::Resume);
  EXPECT_EQ(board_.uart1().captured(), "Z");
  EXPECT_EQ(hv_.find_cell(cell_id_)->console_bytes(), 1u);
  EXPECT_EQ(hv_.counters().mmio_emulations, 1u);
}

TEST_F(MmioTest, TrappedConsoleLsrReadsReady) {
  const TrapOutcome outcome = hv_.guest_data_abort(
      1, platform::kUart1Base + platform::kUartLsr, 0, false);
  EXPECT_EQ(outcome.action, TrapAction::Resume);
  EXPECT_EQ(outcome.mmio_read_value, platform::kLsrThrEmpty);
}

TEST_F(MmioTest, TrappedConsoleOtherOffsetsAreBenign) {
  EXPECT_EQ(hv_.guest_data_abort(1, platform::kUart1Base + 0x8, 0xFF, true).action,
            TrapAction::Resume);
  EXPECT_EQ(board_.uart1().captured(), "");  // write-ignored
}

TEST_F(MmioTest, GicdEnableForOwnedSpi) {
  const std::uint32_t bit = 1u << (platform::kUart1Irq - 32);
  const TrapOutcome outcome =
      hv_.guest_data_abort(1, kGicDistBase + 0x104, bit, true);
  EXPECT_EQ(outcome.action, TrapAction::Resume);
  EXPECT_TRUE(board_.gic().is_enabled(platform::kUart1Irq));
  EXPECT_EQ(board_.gic().target(platform::kUart1Irq), 1);
}

TEST_F(MmioTest, GicdEnableForUnownedSpiIsIgnored) {
  const std::uint32_t bit = 1u << (platform::kUart0Irq - 32);
  const TrapOutcome outcome =
      hv_.guest_data_abort(1, kGicDistBase + 0x104, bit, true);
  EXPECT_EQ(outcome.action, TrapAction::Resume);  // RAZ/WI, not a fault
  EXPECT_FALSE(board_.gic().is_enabled(platform::kUart0Irq));
}

TEST_F(MmioTest, GicdReadBackShowsOwnedEnabledLines) {
  const std::uint32_t bit = 1u << (platform::kUart1Irq - 32);
  (void)hv_.guest_data_abort(1, kGicDistBase + 0x104, bit, true);
  const TrapOutcome outcome =
      hv_.guest_data_abort(1, kGicDistBase + 0x104, 0, false);
  EXPECT_EQ(outcome.mmio_read_value, bit);
}

TEST_F(MmioTest, GicdDisableOwnedSpi) {
  const std::uint32_t bit = 1u << (platform::kUart1Irq - 32);
  (void)hv_.guest_data_abort(1, kGicDistBase + 0x104, bit, true);
  (void)hv_.guest_data_abort(1, kGicDistBase + 0x184, bit, true);
  EXPECT_FALSE(board_.gic().is_enabled(platform::kUart1Irq));
}

TEST_F(MmioTest, GicdPrioritySetForOwnedLineOnly) {
  // IPRIORITYR word containing irq 34 starts at offset 0x400 + 32.
  const std::uint64_t offset = 0x400 + (platform::kUart1Irq & ~3u);
  const unsigned lane = platform::kUart1Irq % 4;
  (void)hv_.guest_data_abort(1, kGicDistBase + offset,
                             0x40u << (8 * lane), true);
  EXPECT_EQ(board_.gic().priority(platform::kUart1Irq), 0x40);
  EXPECT_NE(board_.gic().priority(platform::kUart0Irq), 0x40);
}

TEST_F(MmioTest, GicdCtlrReadsOne) {
  const TrapOutcome outcome = hv_.guest_data_abort(1, kGicDistBase, 0, false);
  EXPECT_EQ(outcome.mmio_read_value, 1u);
}

TEST_F(MmioTest, GicdUnknownOffsetIsRazWi) {
  const TrapOutcome outcome =
      hv_.guest_data_abort(1, kGicDistBase + 0xF00, 0x123, true);
  EXPECT_EQ(outcome.action, TrapAction::Resume);
  EXPECT_EQ(hv_.guest_data_abort(1, kGicDistBase + 0xF00, 0, false)
                .mmio_read_value,
            0u);
}

TEST_F(MmioTest, AddressOutsideAllWindowsParks0x24) {
  const TrapOutcome outcome = hv_.guest_data_abort(1, 0x0bad'0000, 1, true);
  EXPECT_EQ(outcome.action, TrapAction::CpuParked);
  EXPECT_NE(board_.cpu(1).halt_reason().find("0x24"), std::string::npos);
}

TEST_F(MmioTest, Stage2FaultCounterPerCell) {
  (void)hv_.guest_data_abort(1, platform::kUart1Base, 'a', true);
  (void)hv_.guest_data_abort(1, kGicDistBase, 0, false);
  EXPECT_EQ(hv_.find_cell(cell_id_)->stage2_faults(), 2u);
}

}  // namespace
}  // namespace mcs::jh
