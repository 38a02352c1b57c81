#include "hypervisor/cell_config.hpp"

#include <gtest/gtest.h>

#include "platform/board.hpp"

namespace mcs::jh {
namespace {

TEST(CellConfig, PaperConfigsValidate) {
  EXPECT_TRUE(make_root_cell_config().validate(2).is_ok());
  EXPECT_TRUE(make_freertos_cell_config().validate(2).is_ok());
}

TEST(CellConfig, RootCellOwnsBothCpusAtBoot) {
  const CellConfig config = make_root_cell_config();
  EXPECT_EQ(config.cpus.size(), 2u);
  EXPECT_EQ(config.console.kind, ConsoleKind::Passthrough);
  EXPECT_EQ(config.console.uart_base, platform::kUart0Base);
}

TEST(CellConfig, FreeRtosCellIsCpu1WithUsartConsole) {
  // "We statically assigned the board CPU core 0 to the root cell and the
  // CPU core 1 to the non-root cell (FreeRTOS cell)."
  const CellConfig config = make_freertos_cell_config();
  ASSERT_EQ(config.cpus.size(), 1u);
  EXPECT_EQ(config.cpus[0], 1);
  EXPECT_EQ(config.console.uart_base, platform::kUart1Base);
  EXPECT_EQ(config.entry_point, kFreeRtosEntry);
}

TEST(CellConfig, EmptyNameRejected) {
  CellConfig config = make_freertos_cell_config();
  config.name.clear();
  EXPECT_EQ(config.validate(2).code(), util::Code::EInval);
}

TEST(CellConfig, NoCpusRejected) {
  CellConfig config = make_freertos_cell_config();
  config.cpus.clear();
  EXPECT_EQ(config.validate(2).code(), util::Code::EInval);
}

TEST(CellConfig, CpuOutOfRangeRejected) {
  CellConfig config = make_freertos_cell_config();
  config.cpus = {2};
  EXPECT_EQ(config.validate(2).code(), util::Code::EInval);
  config.cpus = {-1};
  EXPECT_EQ(config.validate(2).code(), util::Code::EInval);
}

TEST(CellConfig, DuplicateCpuRejected) {
  CellConfig config = make_root_cell_config();
  config.cpus = {0, 0};
  EXPECT_EQ(config.validate(2).code(), util::Code::EInval);
}

TEST(CellConfig, OverlappingRegionsRejected) {
  CellConfig config = make_freertos_cell_config();
  mem::MemRegion dup = config.mem_regions.front();
  dup.name = "dup";
  config.mem_regions.push_back(dup);
  EXPECT_EQ(config.validate(2).code(), util::Code::EInval);
}

TEST(CellConfig, ZeroSizedRegionRejected) {
  CellConfig config = make_freertos_cell_config();
  mem::MemRegion zero;
  zero.name = "zero";
  zero.virt_start = 0xF000'0000;
  zero.size = 0;
  config.mem_regions.push_back(zero);
  EXPECT_EQ(config.validate(2).code(), util::Code::EInval);
}

TEST(CellConfig, RegionWrappingPastTheAddressSpaceRejected) {
  // start + size must not wrap past 2^64 in either space; a wrapped end
  // would slip through the root-coverage check at create.
  CellConfig config = make_freertos_cell_config();
  mem::MemRegion& ram = config.mem_regions.front();
  ASSERT_EQ(ram.name, "ram");
  ram.size = UINT64_MAX;
  EXPECT_EQ(config.validate(2).code(), util::Code::EInval);

  CellConfig virt = make_freertos_cell_config();
  mem::MemRegion high;
  high.name = "high";
  high.phys_start = 0x1000;
  high.virt_start = 0xFFFF'FFFF'FFFF'F000;
  high.size = 0x2000;
  virt.mem_regions.push_back(high);
  EXPECT_EQ(virt.validate(2).code(), util::Code::EInval);

  high.size = 0x1000;  // ends exactly at the top: still not representable
  virt.mem_regions.back() = high;
  EXPECT_EQ(virt.validate(2).code(), util::Code::EInval);

  high.size = 0xFFF;
  virt.mem_regions.back() = high;
  EXPECT_TRUE(virt.validate(2).is_ok());
}

TEST(CellConfig, NonSpiIrqRejected) {
  CellConfig config = make_freertos_cell_config();
  config.irqs.push_back(27);  // a PPI is not assignable
  EXPECT_EQ(config.validate(2).code(), util::Code::EInval);
}

TEST(CellConfig, FreeRtosRamLiesInRootLoanablePool) {
  const CellConfig root = make_root_cell_config();
  const CellConfig cell = make_freertos_cell_config();
  mem::MemoryMap root_map;
  for (const auto& region : root.mem_regions) {
    ASSERT_TRUE(root_map.add_region(region).is_ok());
  }
  for (const auto& region : cell.mem_regions) {
    EXPECT_TRUE(root_map.covers_phys(region.phys_start, region.size))
        << region.name;
  }
}

}  // namespace
}  // namespace mcs::jh
