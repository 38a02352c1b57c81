// Task control block for the mini-RTOS (FreeRTOS-flavoured).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "util/clock.hpp"

namespace mcs::guest::rtos {

using TaskId = std::size_t;
inline constexpr TaskId kNoTask = static_cast<TaskId>(-1);

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

/// One work unit of a task: called each time the scheduler dispatches it.
/// Tasks structure themselves as repeated short steps (the usual
/// "for(;;){ work; vTaskDelay(); }" body, one lap per call).
using TaskStep = std::function<void(TaskContext&)>;

/// A task's identity: fixed when the task is created, never snapshotted
/// or copied.
struct Task {
  std::string name;
  TaskStep step;
};

/// A task's scheduling record, one dense entry per task in the kernel's
/// state block (so the ready scan reads one flat vector).
struct TaskData {
  TaskState state = TaskState::Ready;
  bool waiting_for_space = false; ///< blocked sender (vs blocked receiver)
  unsigned priority = 1;          ///< higher value = more urgent (FreeRTOS style)
  util::Ticks wake_at{};          ///< for BlockedOnDelay
  std::size_t waiting_queue = 0;  ///< for BlockedOnQueue

  // -- statistics ---------------------------------------------------------
  std::uint64_t dispatches = 0;   ///< times the scheduler ran this task
  std::uint64_t errors = 0;       ///< self-detected data errors

  bool operator==(const TaskData&) const = default;
};

}  // namespace mcs::guest::rtos
