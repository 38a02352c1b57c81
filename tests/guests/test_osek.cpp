// OSEK kernel semantics + the AUTOSAR-flavoured guest image on the
// testbed, including a campaign proving the methodology is guest-agnostic.
#include "guests/osek/os.hpp"

#include <gtest/gtest.h>

#include <functional>

#include "core/campaign.hpp"
#include "guests/osek_image.hpp"
#include "util/rng.hpp"

namespace mcs::guest::osek {
namespace {

/// Test-local task bodies: one trampoline step that runs the body
/// declared with the task (body i is task i), so each test keeps its
/// closures while the OS sees plain data.
struct Bodies {
  std::vector<std::function<void(TaskContext&)>> bodies;

  static void run(void* owner, TaskContext& ctx) {
    static_cast<Bodies*>(owner)->bodies[ctx.self](ctx);
  }
  static constexpr StepFn kSteps[] = {&run};
};

/// An OS running the test's own bodies.
class TestOs : public Os {
 public:
  TestOs() : Os(Bodies::kSteps, &bodies_) {}

  /// declare_task() running `body`.
  TaskId declare(unsigned priority, std::function<void(TaskContext&)> body) {
    bodies_.bodies.push_back(std::move(body));
    return declare_task(priority, 0);
  }

 private:
  Bodies bodies_;
};

TEST(OsekOs, ActivateAndDispatchRunToCompletion) {
  TestOs os;
  int runs = 0;
  const TaskId t = os.declare(1, [&](TaskContext&) { ++runs; });
  EXPECT_EQ(os.task_state(t), TaskState::Suspended);
  EXPECT_EQ(os.activate_task(t), Status::E_OK);
  EXPECT_EQ(os.task_state(t), TaskState::Ready);
  EXPECT_EQ(os.dispatch(), t);
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(os.task_state(t), TaskState::Suspended);  // terminated
  EXPECT_EQ(os.dispatch(), std::nullopt);
}

TEST(OsekOs, PriorityOrdersDispatch) {
  TestOs os;
  std::vector<std::string> order;
  const TaskId low = os.declare(1, [&](TaskContext&) {
    order.push_back("low");
  });
  const TaskId high = os.declare(9, [&](TaskContext&) {
    order.push_back("high");
  });
  (void)os.activate_task(low);
  (void)os.activate_task(high);
  (void)os.dispatch();
  (void)os.dispatch();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "high");
  EXPECT_EQ(order[1], "low");
}

TEST(OsekOs, Bcc1ActivationLimit) {
  TestOs os;
  const TaskId t = os.declare(1, [](TaskContext&) {});
  EXPECT_EQ(os.activate_task(t), Status::E_OK);   // Ready
  EXPECT_EQ(os.activate_task(t), Status::E_OK);   // one queued
  EXPECT_EQ(os.activate_task(t), Status::E_OS_LIMIT);
  // After dispatch the queued activation becomes ready again.
  (void)os.dispatch();
  EXPECT_EQ(os.task_state(t), TaskState::Ready);
}

TEST(OsekOs, InvalidIdsRejected) {
  TestOs os;
  EXPECT_EQ(os.activate_task(7), Status::E_OS_ID);
  EXPECT_EQ(os.set_rel_alarm(3, 1, 1), Status::E_OS_ID);
  EXPECT_EQ(os.cancel_alarm(3), Status::E_OS_ID);
}

TEST(OsekOs, CyclicAlarmActivatesPeriodically) {
  TestOs os;
  int runs = 0;
  const TaskId t = os.declare(1, [&](TaskContext&) { ++runs; });
  const AlarmId alarm = os.declare_alarm(t);
  EXPECT_EQ(os.set_rel_alarm(alarm, 5, 10), Status::E_OK);
  for (int tick = 0; tick < 35; ++tick) {
    os.on_counter_tick();
    (void)os.dispatch();
  }
  EXPECT_EQ(runs, 4);  // ticks 5, 15, 25, 35
}

TEST(OsekOs, OneShotAlarmFiresOnce) {
  TestOs os;
  int runs = 0;
  const TaskId t = os.declare(1, [&](TaskContext&) { ++runs; });
  const AlarmId alarm = os.declare_alarm(t);
  EXPECT_EQ(os.set_rel_alarm(alarm, 3, 0), Status::E_OK);
  for (int tick = 0; tick < 20; ++tick) {
    os.on_counter_tick();
    (void)os.dispatch();
  }
  EXPECT_EQ(runs, 1);
}

TEST(OsekOs, DoubleArmRejectedCancelWorks) {
  TestOs os;
  const TaskId t = os.declare(1, [](TaskContext&) {});
  const AlarmId alarm = os.declare_alarm(t);
  EXPECT_EQ(os.set_rel_alarm(alarm, 5, 5), Status::E_OK);
  EXPECT_EQ(os.set_rel_alarm(alarm, 5, 5), Status::E_OS_STATE);
  EXPECT_EQ(os.cancel_alarm(alarm), Status::E_OK);
  EXPECT_EQ(os.cancel_alarm(alarm), Status::E_OS_NOFUNC);
  EXPECT_EQ(os.set_rel_alarm(alarm, 5, 5), Status::E_OK);
}

TEST(OsekOs, ChainTaskActivatesNext) {
  TestOs os;
  std::vector<std::string> order;
  TaskId second = 0;
  const TaskId first = os.declare(2, [&](TaskContext& ctx) {
    order.push_back("first");
    EXPECT_EQ(ctx.os.chain_task(ctx, second), Status::E_OK);
  });
  second = os.declare(1, [&](TaskContext&) {
    order.push_back("second");
  });
  (void)os.activate_task(first);
  (void)os.dispatch();
  (void)os.dispatch();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[1], "second");
}

TEST(OsekOs, TaskIdentityAndStatusNames) {
  // A task is named by its id and step: dispatch runs the declared body.
  TestOs os;
  std::vector<TaskId> ran;
  const auto record = [&](TaskContext& ctx) { ran.push_back(ctx.self); };
  (void)os.declare(4, record);
  const TaskId brake = os.declare(4, record);
  EXPECT_EQ(os.task_count(), 2u);
  EXPECT_EQ(os.activate_task(brake), Status::E_OK);
  EXPECT_EQ(os.dispatch(), brake);
  ASSERT_EQ(ran.size(), 1u);
  EXPECT_EQ(ran[0], brake);
  EXPECT_EQ(status_name(Status::E_OS_LIMIT), "E_OS_LIMIT");
}

// Property: invariants hold under random activation/alarm/dispatch storms.
class OsekProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OsekProperty, InvariantsUnderRandomActivity) {
  TestOs os;
  util::Xoshiro256 rng(GetParam());
  for (int i = 0; i < 5; ++i) {
    (void)os.declare(1 + static_cast<unsigned>(i % 3), [](TaskContext&) {});
  }
  const AlarmId alarm = os.declare_alarm(0);
  (void)os.set_rel_alarm(alarm, 2, 3);
  for (int step = 0; step < 3000; ++step) {
    switch (rng.below(3)) {
      case 0: (void)os.activate_task(rng.below(6)); break;  // may be E_OS_ID
      case 1: os.on_counter_tick(); break;
      default: (void)os.dispatch(); break;
    }
    ASSERT_TRUE(os.invariants_hold()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OsekProperty, ::testing::Values(3, 14, 159));

}  // namespace
}  // namespace mcs::guest::osek

namespace mcs::guest {
namespace {

/// Boots the OSEK image instead of FreeRTOS in the non-root cell.
class OsekCellTest : public ::testing::Test {
 protected:
  OsekCellTest() {
    EXPECT_TRUE(testbed_.enable_hypervisor().is_ok());
    // Re-bind the non-root cell to the OSEK image after boot wiring.
    testbed_.boot_freertos_cell();
    testbed_.machine().bind_guest(testbed_.freertos_cell_id(), osek_);
    // Restart the cell so on_start runs for the OSEK image.
    testbed_.shutdown_freertos_cell();
    testbed_.linux_root().enqueue(
        {jh::Hypercall::CellSetLoadable, testbed_.freertos_cell_id()});
    testbed_.linux_root().cell_start(testbed_.freertos_cell_id());
    testbed_.run(30);
  }

  fi::Testbed testbed_;
  OsekImage osek_;
};

TEST_F(OsekCellTest, BootsAndRunsAutomotiveWorkload) {
  testbed_.run(2'000);
  EXPECT_GT(osek_.brake_samples(), 150u);  // 10 ms period
  EXPECT_GT(osek_.frames_sent(), 30u);     // 50 ms period
  EXPECT_GT(osek_.wdg_kicks(), 15u);       // 100 ms period
  EXPECT_EQ(osek_.data_errors(), 0u);
  EXPECT_NE(testbed_.board().uart1().captured().find("frame"),
            std::string::npos);
}

TEST_F(OsekCellTest, MediumCampaignShapeIsGuestAgnostic) {
  // The §III failure taxonomy is a property of the hypervisor, not of the
  // guest: injections against the OSEK cell produce the same classes.
  fi::TestPlan plan = fi::paper_medium_trap_plan();
  plan.rate = 10;  // several injections in a short window
  plan.phase = 1;
  fi::Injector injector(plan, 99, testbed_.board().clock());
  injector.attach(testbed_.hypervisor());
  testbed_.run(10'000);
  injector.detach(testbed_.hypervisor());

  // Either everything stayed benign, or the failure is one of the paper's
  // classes — never silent corruption.
  const auto& cpu1 = testbed_.board().cpu(1);
  if (testbed_.hypervisor().is_panicked()) {
    SUCCEED();  // panic park
  } else if (cpu1.is_parked()) {
    EXPECT_NE(cpu1.halt_reason().find("unhandled trap"), std::string::npos);
  } else {
    EXPECT_TRUE(cpu1.is_online());
    EXPECT_EQ(osek_.data_errors(), 0u);
  }
}

}  // namespace
}  // namespace mcs::guest
