// The paper's FreeRTOS workload, run on the real testbed.
#include "guests/freertos_image.hpp"

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "core/testbed.hpp"

namespace mcs::guest {
namespace {

class FreeRtosWorkloadTest : public ::testing::Test {
 protected:
  FreeRtosWorkloadTest() {
    EXPECT_TRUE(testbed_.enable_hypervisor().is_ok());
    testbed_.boot_freertos_cell();
  }

  fi::Testbed testbed_;
};

TEST_F(FreeRtosWorkloadTest, SpawnsThePaperTaskMix) {
  // 1 blink + 2 (send/receive) + 2 FP + 15 integer = 20 tasks, each named
  // by its (step, param) pair.
  const rtos::Kernel& kernel = testbed_.freertos().kernel();
  ASSERT_EQ(kernel.task_count(), 20u);
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> roles;
  for (rtos::TaskId id = 0; id < kernel.task_count(); ++id) {
    ++roles[{kernel.task(id).step, kernel.task(id).param}];
  }
  EXPECT_EQ(roles.size(), 20u) << "every (step, param) is distinct";
  EXPECT_TRUE(roles.contains({FreeRtosImage::kBlinkStep, 0}));
  EXPECT_TRUE(roles.contains({FreeRtosImage::kTxStep, 0}));
  EXPECT_TRUE(roles.contains({FreeRtosImage::kRxStep, 0}));
  EXPECT_TRUE(roles.contains({FreeRtosImage::kFpStep, 0}));
  EXPECT_TRUE(roles.contains({FreeRtosImage::kFpStep, 1}));
  for (std::uint32_t n = 0; n < FreeRtosImage::kIntegerTasks; ++n) {
    EXPECT_TRUE(roles.contains({FreeRtosImage::kIntStep, n})) << "int" << n;
  }
}

TEST_F(FreeRtosWorkloadTest, BannerOnUsartAtBoot) {
  const std::string& captured = testbed_.board().uart1().captured();
  EXPECT_NE(captured.find("FreeRTOS"), std::string::npos);
  EXPECT_NE(captured.find("20 tasks"), std::string::npos);
}

TEST_F(FreeRtosWorkloadTest, BlinkTaskTogglesLedAtPeriod) {
  testbed_.run(2'100);
  // 500 ms period → ~4 toggles in 2.1 s.
  EXPECT_GE(testbed_.freertos().blink_count(), 4u);
  EXPECT_GE(testbed_.board().gpio().led_toggles(), 4u);
}

TEST_F(FreeRtosWorkloadTest, MessagesFlowAndValidate) {
  testbed_.run(2'000);
  EXPECT_GT(testbed_.freertos().messages_validated(), 50u);
  EXPECT_EQ(testbed_.freertos().data_errors(), 0u);
}

TEST_F(FreeRtosWorkloadTest, HeartbeatLinesAppearOnUsart) {
  testbed_.run(5'000);
  const auto lines = testbed_.board().uart1().lines();
  bool saw_rx = false, saw_fp = false, saw_int = false, saw_blink = false;
  for (const std::string& line : lines) {
    if (line.rfind("rx ", 0) == 0) saw_rx = true;
    if (line.rfind("fp", 0) == 0) saw_fp = true;
    if (line.rfind("int", 0) == 0) saw_int = true;
    if (line.rfind("blink", 0) == 0) saw_blink = true;
  }
  EXPECT_TRUE(saw_rx);
  EXPECT_TRUE(saw_fp);
  EXPECT_TRUE(saw_int);
  EXPECT_TRUE(saw_blink);
}

TEST_F(FreeRtosWorkloadTest, FpTasksSelfValidate) {
  testbed_.run(5'000);
  const std::string& captured = testbed_.board().uart1().captured();
  EXPECT_NE(captured.find("fp0 ok"), std::string::npos);
  EXPECT_NE(captured.find("fp1 ok"), std::string::npos);
  EXPECT_EQ(captured.find("BAD"), std::string::npos);
}

TEST_F(FreeRtosWorkloadTest, GeneratesHvcAndTrapTraffic) {
  const jh::Counters before = testbed_.hypervisor().counters();
  testbed_.run(10'000);
  const jh::Counters& after = testbed_.hypervisor().counters();
  EXPECT_GT(after.hvcs, before.hvcs);              // debug-console heartbeats
  EXPECT_GT(after.mmio_emulations, before.mmio_emulations);  // GICD pokes
  EXPECT_GT(testbed_.board().cpu(1).trap_entries(), 0u);
}

TEST_F(FreeRtosWorkloadTest, UnknownIrqsAreCountedNotFatal) {
  auto& gic = testbed_.board().gic();
  (void)gic.enable(40);
  (void)gic.set_target(40, 1);
  // Line 40 is not owned by the cell: the hypervisor drops it (Unowned)
  // and the guest never sees it; nothing crashes.
  (void)gic.raise_spi(40);
  testbed_.run(10);
  EXPECT_TRUE(testbed_.board().cpu(1).is_online());
}

}  // namespace
}  // namespace mcs::guest
