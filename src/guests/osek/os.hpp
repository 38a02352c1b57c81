// Mini OSEK/VDX operating system — the AUTOSAR-classic flavour of the
// automotive stack (§IV: MICROSAR's OS "is based on the AUTOSAR OS
// specification, which is an extension of the OSEK/VDX-OS standard").
//
// Implements the OSEK conformance-class-BCC1 core:
//   * basic tasks: run-to-completion, fixed priority, no blocking;
//   * ActivateTask / TerminateTask / ChainTask;
//   * counters and cyclic alarms (SetRelAlarm → ActivateTask);
//   * E_OS_LIMIT on over-activation (one pending activation per task).
//
// Deliberately distinct from the FreeRTOS-style kernel in guests/rtos:
// OSEK basic tasks cannot block, so the scheduler is a simple fixed-
// priority dispatch of pending activations — which is exactly what makes
// it attractive for ASIL partitions.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace mcs::guest::osek {

using TaskId = std::size_t;
using AlarmId = std::size_t;

/// OSEK StatusType subset.
enum class Status : std::uint8_t {
  E_OK = 0,
  E_OS_ID,       ///< invalid object id
  E_OS_LIMIT,    ///< too many activations
  E_OS_STATE,    ///< object in the wrong state
  E_OS_NOFUNC,   ///< alarm not in use
};

[[nodiscard]] std::string_view status_name(Status status) noexcept;

/// OSEK task states (basic tasks: no Waiting state).
enum class TaskState : std::uint8_t { Suspended, Ready, Running };

class Os;

/// What a task body sees.
struct TaskContext {
  Os& os;
  TaskId self;
};

/// Task body: one run-to-completion execution, an entry of the owner's
/// static table. The body must finish by returning (TerminateTask) or
/// calling ChainTask via the context.
using StepFn = void (*)(void* owner, TaskContext& ctx);

class Os {
 public:
  /// `steps` is the owner's static body table and `owner` the pointer
  /// every body receives. Neither is state: each owner binds its own.
  Os(std::span<const StepFn> steps, void* owner) noexcept
      : steps_(steps), owner_(owner) {}

  // --- configuration (build time, like an OIL file) ----------------------
  TaskId declare_task(unsigned priority, std::uint32_t step);
  AlarmId declare_alarm(TaskId activates);

  // --- OSEK services ------------------------------------------------------
  Status activate_task(TaskId task);
  /// Called from inside a body: finish and activate another task.
  Status chain_task(TaskContext& ctx, TaskId next);
  Status set_rel_alarm(AlarmId alarm, std::uint64_t offset, std::uint64_t cycle);
  Status cancel_alarm(AlarmId alarm);

  // --- kernel ticks --------------------------------------------------------
  /// Counter tick (the OSEK system counter); expires due alarms.
  void on_counter_tick();

  /// Dispatch the highest-priority ready activation to completion.
  /// Returns the task run, or nullopt when idle.
  std::optional<TaskId> dispatch();

  // --- introspection --------------------------------------------------------
  [[nodiscard]] std::size_t task_count() const noexcept { return state_.tasks.size(); }
  [[nodiscard]] TaskState task_state(TaskId task) const;
  [[nodiscard]] std::uint64_t activations(TaskId task) const;
  [[nodiscard]] std::uint64_t dispatches() const noexcept { return state_.dispatches; }
  [[nodiscard]] std::uint64_t counter() const noexcept { return state_.counter; }

  /// OSEK invariants: at most one Running task (none between dispatches),
  /// pending activations ∈ {0, 1} per basic task.
  [[nodiscard]] bool invariants_hold() const noexcept;

  // --- snapshot / restore ------------------------------------------------
  /// A task's identity (its step) and run-mutable record (priority
  /// rides along so the dispatch scan reads one dense vector).
  struct TaskData {
    TaskState state = TaskState::Suspended;
    bool pending = false;   ///< one queued activation (BCC1)
    unsigned priority = 1;
    std::uint32_t step = 0;  ///< index into the OS's body table
    std::uint64_t activations = 0;

    bool operator==(const TaskData&) const = default;
  };
  struct AlarmData {
    TaskId activates = 0;
    bool armed = false;
    std::uint64_t expires_at = 0;
    std::uint64_t cycle = 0;  ///< 0 = one-shot

    bool operator==(const AlarmData&) const = default;
  };

  /// Everything the OS mutates, declared once: the state block is the
  /// snapshot. Task identity (the step) and alarm targets are plain
  /// data in their records, so the block holds no pointers and restores
  /// into any OS bound to the same body table. The power-on image (an
  /// empty OS) drops every task and alarm, capacity kept.
  struct State {
    std::vector<TaskData> tasks;
    std::vector<AlarmData> alarms;
    std::uint64_t counter = 0;
    std::uint64_t dispatches = 0;

    bool operator==(const State&) const = default;
  };
  using Snapshot = State;

  void snapshot_to(Snapshot& out) const { out = state_; }

  void restore_from(const Snapshot& snapshot) { state_ = snapshot; }

 private:
  std::span<const StepFn> steps_;
  void* owner_;
  State state_;
};

}  // namespace mcs::guest::osek
