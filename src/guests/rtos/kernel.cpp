#include "guests/rtos/kernel.hpp"

#include <algorithm>

namespace mcs::guest::rtos {

TaskId Kernel::add_task(unsigned priority, std::uint32_t step, std::uint32_t param) {
  TaskData data;
  data.priority = priority;
  data.step = step;
  data.param = param;
  state_.tasks.push_back(data);
  return state_.tasks.size() - 1;
}

void Kernel::delay(TaskId task, std::uint64_t ticks) {
  TaskData& t = state_.tasks.at(task);
  t.state = TaskState::BlockedOnDelay;
  t.wake_at = util::Ticks{state_.tick_count + ticks};
}

void Kernel::suspend(TaskId task) { state_.tasks.at(task).state = TaskState::Suspended; }

void Kernel::resume(TaskId task) {
  TaskData& t = state_.tasks.at(task);
  if (t.state == TaskState::Suspended) t.state = TaskState::Ready;
}

QueueId Kernel::create_queue(std::size_t capacity) {
  state_.queues.emplace_back(capacity);
  return state_.queues.size() - 1;
}

bool Kernel::queue_send(TaskId task, QueueId queue, std::uint32_t item) {
  MessageQueue& q = state_.queues.at(queue);
  if (q.try_send(item)) {
    wake_queue_waiters(queue, /*for_space=*/false);  // data available
    return true;
  }
  TaskData& t = state_.tasks.at(task);
  t.state = TaskState::BlockedOnQueue;
  t.waiting_queue = queue;
  t.waiting_for_space = true;
  return false;
}

std::optional<std::uint32_t> Kernel::queue_receive(TaskId task, QueueId queue) {
  MessageQueue& q = state_.queues.at(queue);
  if (auto item = q.try_receive()) {
    wake_queue_waiters(queue, /*for_space=*/true);  // space available
    return item;
  }
  TaskData& t = state_.tasks.at(task);
  t.state = TaskState::BlockedOnQueue;
  t.waiting_queue = queue;
  t.waiting_for_space = false;
  return std::nullopt;
}

void Kernel::wake_queue_waiters(QueueId queue, bool for_space) {
  for (TaskData& t : state_.tasks) {
    if (t.state == TaskState::BlockedOnQueue && t.waiting_queue == queue &&
        t.waiting_for_space == for_space) {
      t.state = TaskState::Ready;
    }
  }
}

void Kernel::on_tick() {
  ++state_.tick_count;
  for (TaskData& t : state_.tasks) {
    if (t.state == TaskState::BlockedOnDelay &&
        t.wake_at.value <= state_.tick_count) {
      t.state = TaskState::Ready;
    }
  }
}

std::optional<TaskId> Kernel::run_slice(jh::GuestContext& guest) {
  // Highest priority wins; round-robin among equals, starting after the
  // previously dispatched task so equal-priority tasks share fairly.
  unsigned best_priority = 0;
  bool found = false;
  for (const TaskData& t : state_.tasks) {
    if (t.state == TaskState::Ready && (!found || t.priority > best_priority)) {
      best_priority = t.priority;
      found = true;
    }
  }
  if (!found) return std::nullopt;

  const std::size_t n = state_.tasks.size();
  for (std::size_t offset = 1; offset <= n; ++offset) {
    const std::size_t index = (state_.rr_cursor + offset) % n;
    TaskData& t = state_.tasks[index];
    if (t.state != TaskState::Ready || t.priority != best_priority) continue;
    state_.rr_cursor = index;
    t.state = TaskState::Running;
    ++t.dispatches;
    ++state_.dispatches;
    TaskContext ctx{*this, guest, index, t.param};
    steps_[t.step](owner_, ctx);
    // A step may have blocked/suspended itself; otherwise it yields.
    if (t.state == TaskState::Running) t.state = TaskState::Ready;
    return index;
  }
  return std::nullopt;
}

bool Kernel::invariants_hold() const noexcept {
  for (const TaskData& t : state_.tasks) {
    if (t.state == TaskState::Running) return false;  // residue between slices
    if (t.state == TaskState::BlockedOnQueue &&
        t.waiting_queue >= state_.queues.size()) {
      return false;
    }
  }
  return true;
}

}  // namespace mcs::guest::rtos
