// Task control block for the mini-RTOS (FreeRTOS-flavoured).
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/clock.hpp"

namespace mcs::guest::rtos {

using TaskId = std::size_t;

/// FreeRTOS-style task states.
enum class TaskState : std::uint8_t {
  Ready,
  Running,
  BlockedOnDelay,   ///< vTaskDelay(): sleeps until a wake tick
  BlockedOnQueue,   ///< xQueueReceive/Send(): waits for queue space/data
  Suspended,
};

class Kernel;
struct TaskContext;

/// One work unit of a task, an entry of the owner's static table: called
/// each time the scheduler dispatches it. Tasks structure themselves as
/// repeated short steps (the usual "for(;;){ work; vTaskDelay(); }" body,
/// one lap per call).
using StepFn = void (*)(void* owner, TaskContext& ctx);

/// A task: its identity (step, param) and its scheduling record, one
/// dense entry per task in the kernel's state block (so the ready scan
/// reads one flat vector).
struct TaskData {
  TaskState state = TaskState::Ready;
  bool waiting_for_space = false; ///< blocked sender (vs blocked receiver)
  unsigned priority = 1;          ///< higher value = more urgent (FreeRTOS style)
  std::uint32_t step = 0;         ///< index into the kernel's step table
  std::uint32_t param = 0;        ///< the step's per-task argument
  util::Ticks wake_at{};          ///< for BlockedOnDelay
  std::size_t waiting_queue = 0;  ///< for BlockedOnQueue

  // -- statistics ---------------------------------------------------------
  std::uint64_t dispatches = 0;   ///< times the scheduler ran this task

  bool operator==(const TaskData&) const = default;
};

}  // namespace mcs::guest::rtos
