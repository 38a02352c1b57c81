#include "hypervisor/cell.hpp"

#include <gtest/gtest.h>

#include "hypervisor/cell_config.hpp"
#include "platform/board.hpp"

namespace mcs::jh {
namespace {

class CellTest : public ::testing::Test {
 protected:
  CellTest() : cell_(1, make_freertos_cell_config(), dram_) {}

  mem::PhysicalMemory dram_;
  Cell cell_;
};

TEST_F(CellTest, StartsCreated) {
  EXPECT_EQ(cell_.state(), CellState::Created);
  EXPECT_EQ(cell_.id(), 1u);
  EXPECT_EQ(cell_.name(), "freertos-cell");
}

TEST_F(CellTest, OwnsConfiguredCpu) {
  EXPECT_TRUE(cell_.owns_cpu(1));
  EXPECT_FALSE(cell_.owns_cpu(0));
  EXPECT_FALSE(cell_.owns_cpu(-1));
}

TEST_F(CellTest, OwnsConfiguredIrq) {
  EXPECT_TRUE(cell_.owns_irq(platform::kUart1Irq));
  EXPECT_FALSE(cell_.owns_irq(platform::kUart0Irq));
}

TEST_F(CellTest, MemoryMapBuiltFromConfig) {
  EXPECT_EQ(cell_.memory_map().regions().size(),
            cell_.config().mem_regions.size());
  EXPECT_TRUE(cell_.memory_map()
                  .translate(kFreeRtosRamBase, mem::Access::Execute)
                  .is_ok());
}

TEST_F(CellTest, AddressSpaceEnforcesMap) {
  EXPECT_TRUE(cell_.address_space().write_u32(kFreeRtosRamBase + 8, 7).is_ok());
  EXPECT_FALSE(cell_.address_space().write_u32(0x4000'0000, 7).is_ok());
}

TEST_F(CellTest, StateTransitionsAreBookkeepingOnly) {
  cell_.set_state(CellState::Running);
  EXPECT_EQ(cell_.state(), CellState::Running);
  cell_.set_state(CellState::ShutDown);
  EXPECT_EQ(cell_.state(), CellState::ShutDown);
  cell_.set_state(CellState::Failed);
  EXPECT_EQ(cell_.state(), CellState::Failed);
}

TEST_F(CellTest, StateNames) {
  EXPECT_EQ(cell_state_name(CellState::Created), "created");
  EXPECT_EQ(cell_state_name(CellState::Running), "running");
  EXPECT_EQ(cell_state_name(CellState::ShutDown), "shut down");
  EXPECT_EQ(cell_state_name(CellState::Failed), "failed");
}

TEST_F(CellTest, StatisticsStartAtZero) {
  EXPECT_EQ(cell_.console_bytes(), 0u);
  EXPECT_EQ(cell_.hypercalls(), 0u);
  EXPECT_EQ(cell_.stage2_faults(), 0u);
}

}  // namespace
}  // namespace mcs::jh
