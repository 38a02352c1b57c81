// Mini-RTOS kernel: priority-preemptive scheduler with delays and
// blocking queues — the FreeRTOS stand-in for the non-root cell.
//
// The kernel is deliberately a *functional* model: one `run_slice()` call
// dispatches one task step, and `on_tick()` is the tick-interrupt hook.
// That is all the paper's workload needs ("several tasks to be managed,
// including a task to blink an onboard led, a couple of send/receive
// tasks, two floating-point arithmetic tasks, and fifteen integer ones",
// §III) while keeping every scheduling decision deterministic.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "guests/rtos/queue.hpp"
#include "guests/rtos/task.hpp"
#include "hypervisor/guest.hpp"
#include "util/clock.hpp"

namespace mcs::guest::rtos {

/// Services available to a running task step.
struct TaskContext {
  Kernel& kernel;
  jh::GuestContext& guest;  ///< the vCPU window (console, LED, hypercalls)
  TaskId self;
  std::uint32_t param;  ///< the task's step argument
};

class Kernel {
 public:
  /// `steps` is the owner's static step table and `owner` the pointer
  /// every step receives. Neither is state: each owner binds its own.
  Kernel(std::span<const StepFn> steps, void* owner) noexcept
      : steps_(steps), owner_(owner) {}

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- task API (xTaskCreate / vTaskDelay analogues) ---------------------
  /// Create a task running `steps[step]` with argument `param`.
  TaskId add_task(unsigned priority, std::uint32_t step, std::uint32_t param = 0);

  /// Block the calling task for `ticks` tick-interrupts.
  void delay(TaskId task, std::uint64_t ticks);

  void suspend(TaskId task);
  void resume(TaskId task);

  // --- queue API (xQueueCreate / Send / Receive analogues) ---------------
  QueueId create_queue(std::size_t capacity);

  /// Send, blocking the caller when the queue is full.
  bool queue_send(TaskId task, QueueId queue, std::uint32_t item);

  /// Receive; blocks the caller (and returns nullopt) when empty.
  std::optional<std::uint32_t> queue_receive(TaskId task, QueueId queue);

  // --- scheduler ---------------------------------------------------------
  /// Tick interrupt: advances kernel time, wakes expired delays.
  void on_tick();

  /// Dispatch the highest-priority ready task for one step.
  /// Returns the task dispatched, or nullopt when all tasks are idle.
  std::optional<TaskId> run_slice(jh::GuestContext& guest);

  // --- introspection ------------------------------------------------------
  [[nodiscard]] const TaskData& task(TaskId id) const { return state_.tasks.at(id); }
  [[nodiscard]] std::size_t task_count() const noexcept { return state_.tasks.size(); }
  [[nodiscard]] std::uint64_t ticks() const noexcept { return state_.tick_count; }
  [[nodiscard]] std::uint64_t dispatches() const noexcept { return state_.dispatches; }

  /// Scheduler invariant checks (used by the property tests): no Running
  /// residue between slices; blocked tasks have a wake reason.
  [[nodiscard]] bool invariants_hold() const noexcept;

  // --- snapshot / restore ------------------------------------------------
  /// Everything the scheduler mutates, declared once: the state block is
  /// the snapshot. A task's identity is its (step, param) pair in its
  /// TaskData, so the block holds no pointers and restores into any
  /// kernel bound to the same step table. The power-on image (an empty
  /// kernel) drops every task and queue while container capacity is kept.
  struct State {
    std::vector<TaskData> tasks;
    std::vector<MessageQueue> queues;
    std::uint64_t tick_count = 0;
    std::uint64_t dispatches = 0;
    /// Round-robin cursor within equal priority; starts "before task 0"
    /// so the first dispatch is task 0 (unsigned wrap makes cursor+1 == 0).
    std::size_t rr_cursor = static_cast<std::size_t>(-1);

    bool operator==(const State&) const = default;
  };
  using Snapshot = State;

  void snapshot_to(Snapshot& out) const { out = state_; }

  void restore_from(const Snapshot& snapshot) { state_ = snapshot; }

 private:
  /// Wake every task blocked on `queue` (space or data became available).
  void wake_queue_waiters(QueueId queue, bool for_space);

  std::span<const StepFn> steps_;
  void* owner_;
  State state_;
};

}  // namespace mcs::guest::rtos
