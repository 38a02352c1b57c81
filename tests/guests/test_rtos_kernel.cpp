// Mini-RTOS scheduler semantics: priorities, delays, blocking queues and
// the scheduler invariants the property tests sweep.
#include "guests/rtos/kernel.hpp"

#include <gtest/gtest.h>

#include <functional>

#include "core/testbed.hpp"
#include "util/rng.hpp"

namespace mcs::guest::rtos {
namespace {

/// Test-local task bodies: one trampoline step that runs body `param`,
/// so each test keeps its closures while the kernel sees plain data.
struct Bodies {
  std::vector<std::function<void(TaskContext&)>> bodies;

  static void run(void* owner, TaskContext& t) {
    static_cast<Bodies*>(owner)->bodies[t.param](t);
  }
  static constexpr StepFn kSteps[] = {&run};
};

/// A kernel running the test's own bodies.
class TestKernel : public Kernel {
 public:
  TestKernel() : Kernel(Bodies::kSteps, &bodies_) {}

  /// add_task() running `body`.
  TaskId add(unsigned priority, std::function<void(TaskContext&)> body) {
    bodies_.bodies.push_back(std::move(body));
    return add_task(priority, 0, static_cast<std::uint32_t>(bodies_.bodies.size() - 1));
  }

 private:
  Bodies bodies_;
};

/// The kernel only touches GuestContext inside task steps; tests that
/// exercise pure scheduling use a real (but idle) testbed context.
class KernelTest : public ::testing::Test {
 protected:
  KernelTest() {
    EXPECT_TRUE(testbed_.enable_hypervisor().is_ok());
    ctx_ = std::make_unique<jh::GuestContext>(
        testbed_.hypervisor(), testbed_.hypervisor().root_cell(), 0);
  }

  TestKernel kernel_;
  fi::Testbed testbed_;
  std::unique_ptr<jh::GuestContext> ctx_;
};

TEST_F(KernelTest, EmptyKernelHasNothingToRun) {
  EXPECT_EQ(kernel_.run_slice(*ctx_), std::nullopt);
  EXPECT_TRUE(kernel_.invariants_hold());
}

TEST_F(KernelTest, HighestPriorityRunsFirst) {
  std::vector<std::string> order;
  (void)kernel_.add(1, [&](TaskContext& t) {
    order.push_back("low");
    t.kernel.suspend(t.self);
  });
  (void)kernel_.add(5, [&](TaskContext& t) {
    order.push_back("high");
    t.kernel.suspend(t.self);
  });
  (void)kernel_.run_slice(*ctx_);
  (void)kernel_.run_slice(*ctx_);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "high");
  EXPECT_EQ(order[1], "low");
}

TEST_F(KernelTest, EqualPriorityRoundRobins) {
  std::vector<std::string> order;
  for (const char* name : {"a", "b", "c"}) {
    (void)kernel_.add(2, [&order, name](TaskContext&) {
      order.push_back(name);
    });
  }
  for (int i = 0; i < 6; ++i) (void)kernel_.run_slice(*ctx_);
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order[0], "a");
  EXPECT_EQ(order[1], "b");
  EXPECT_EQ(order[2], "c");
  EXPECT_EQ(order[3], "a");  // fair rotation
}

TEST_F(KernelTest, DelayBlocksUntilTick) {
  int runs = 0;
  (void)kernel_.add(1, [&](TaskContext& t) {
    ++runs;
    t.kernel.delay(t.self, 3);
  });
  (void)kernel_.run_slice(*ctx_);
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(kernel_.run_slice(*ctx_), std::nullopt);  // blocked
  kernel_.on_tick();
  kernel_.on_tick();
  EXPECT_EQ(kernel_.run_slice(*ctx_), std::nullopt);  // still blocked
  kernel_.on_tick();
  EXPECT_NE(kernel_.run_slice(*ctx_), std::nullopt);
  EXPECT_EQ(runs, 2);
}

TEST_F(KernelTest, SuspendResume) {
  int runs = 0;
  const TaskId id = kernel_.add(1, [&](TaskContext&) { ++runs; });
  kernel_.suspend(id);
  EXPECT_EQ(kernel_.run_slice(*ctx_), std::nullopt);
  kernel_.resume(id);
  EXPECT_NE(kernel_.run_slice(*ctx_), std::nullopt);
  EXPECT_EQ(runs, 1);
}

TEST_F(KernelTest, QueueReceiveBlocksUntilData) {
  const QueueId queue = kernel_.create_queue(2);
  std::vector<std::uint32_t> received;
  const TaskId rx = kernel_.add(2, [&](TaskContext& t) {
    if (const auto item = t.kernel.queue_receive(t.self, queue)) {
      received.push_back(*item);
    }
  });
  (void)kernel_.run_slice(*ctx_);  // rx blocks on the empty queue
  EXPECT_EQ(kernel_.task(rx).state, TaskState::BlockedOnQueue);
  EXPECT_EQ(kernel_.run_slice(*ctx_), std::nullopt);

  // A sender task wakes it.
  (void)kernel_.add(1, [&](TaskContext& t) {
    (void)t.kernel.queue_send(t.self, queue, 77);
    t.kernel.suspend(t.self);
  });
  (void)kernel_.run_slice(*ctx_);  // tx runs (rx blocked), sends, wakes rx
  (void)kernel_.run_slice(*ctx_);  // rx consumes
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], 77u);
}

TEST_F(KernelTest, QueueSendBlocksWhenFull) {
  const QueueId queue = kernel_.create_queue(1);
  const TaskId tx = kernel_.add(1, [&](TaskContext& t) {
    (void)t.kernel.queue_send(t.self, queue, 1);
  });
  (void)kernel_.run_slice(*ctx_);  // fills the queue
  (void)kernel_.run_slice(*ctx_);  // second send blocks
  EXPECT_EQ(kernel_.task(tx).state, TaskState::BlockedOnQueue);
  EXPECT_TRUE(kernel_.task(tx).waiting_for_space);
  // Draining the queue wakes the sender.
  (void)kernel_.add(3, [&](TaskContext& t) {
    (void)t.kernel.queue_receive(t.self, queue);
    t.kernel.suspend(t.self);
  });
  (void)kernel_.run_slice(*ctx_);
  EXPECT_EQ(kernel_.task(tx).state, TaskState::Ready);
}

TEST_F(KernelTest, TaskIdentityIsStepAndParam) {
  // A task is named by (step, param) in its state record.
  const TaskId blink = kernel_.add(3, [](TaskContext&) {});
  const TaskId other = kernel_.add(2, [](TaskContext&) {});
  EXPECT_EQ(kernel_.task_count(), 2u);
  EXPECT_EQ(kernel_.task(blink).step, 0u);
  EXPECT_EQ(kernel_.task(blink).param, 0u);
  EXPECT_EQ(kernel_.task(blink).priority, 3u);
  EXPECT_EQ(kernel_.task(other).step, 0u);
  EXPECT_EQ(kernel_.task(other).param, 1u);
}

TEST_F(KernelTest, DispatchCountersAccumulate) {
  (void)kernel_.add(1, [](TaskContext&) {});
  for (int i = 0; i < 5; ++i) (void)kernel_.run_slice(*ctx_);
  EXPECT_EQ(kernel_.dispatches(), 5u);
  EXPECT_EQ(kernel_.task(0).dispatches, 5u);
}

// Property: under random scheduling/blocking activity the kernel
// invariants hold at every step and the tick counter is monotonic.
class KernelProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelProperty, InvariantsHoldUnderRandomActivity) {
  fi::Testbed testbed;
  ASSERT_TRUE(testbed.enable_hypervisor().is_ok());
  jh::GuestContext ctx(testbed.hypervisor(), testbed.hypervisor().root_cell(), 0);

  TestKernel kernel;
  util::Xoshiro256 rng(GetParam());
  const QueueId queue = kernel.create_queue(4);
  for (int i = 0; i < 6; ++i) {
    (void)kernel.add(
        1 + static_cast<unsigned>(i % 3),
        [&rng, queue](TaskContext& t) {
          switch (rng.below(4)) {
            case 0: t.kernel.delay(t.self, 1 + rng.below(5)); break;
            case 1: (void)t.kernel.queue_send(t.self, queue,
                                              static_cast<std::uint32_t>(rng.next()));
              break;
            case 2: (void)t.kernel.queue_receive(t.self, queue); break;
            default: break;  // plain compute step
          }
        });
  }
  for (int step = 0; step < 2000; ++step) {
    if (rng.chance(0.3)) kernel.on_tick();
    (void)kernel.run_slice(ctx);
    ASSERT_TRUE(kernel.invariants_hold()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace mcs::guest::rtos
