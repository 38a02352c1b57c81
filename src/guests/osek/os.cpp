#include "guests/osek/os.hpp"

namespace mcs::guest::osek {

std::string_view status_name(Status status) noexcept {
  switch (status) {
    case Status::E_OK: return "E_OK";
    case Status::E_OS_ID: return "E_OS_ID";
    case Status::E_OS_LIMIT: return "E_OS_LIMIT";
    case Status::E_OS_STATE: return "E_OS_STATE";
    case Status::E_OS_NOFUNC: return "E_OS_NOFUNC";
  }
  return "?";
}

TaskId Os::declare_task(unsigned priority, std::uint32_t step) {
  TaskData data;
  data.priority = priority;
  data.step = step;
  state_.tasks.push_back(data);
  return state_.tasks.size() - 1;
}

AlarmId Os::declare_alarm(TaskId activates) {
  AlarmData data;
  data.activates = activates;
  state_.alarms.push_back(data);
  return state_.alarms.size() - 1;
}

Status Os::activate_task(TaskId task) {
  if (task >= state_.tasks.size()) return Status::E_OS_ID;
  TaskData& t = state_.tasks[task];
  if (t.state == TaskState::Suspended) {
    t.state = TaskState::Ready;
    return Status::E_OK;
  }
  // Ready or Running: queue exactly one further activation (BCC1 limit).
  if (t.pending) return Status::E_OS_LIMIT;
  t.pending = true;
  return Status::E_OK;
}

Status Os::chain_task(TaskContext& ctx, TaskId next) {
  if (next >= state_.tasks.size()) return Status::E_OS_ID;
  if (ctx.self >= state_.tasks.size() ||
      state_.tasks[ctx.self].state != TaskState::Running) {
    return Status::E_OS_STATE;
  }
  // Chaining to self is the OSEK idiom for "run me again".
  return activate_task(next);
}

Status Os::set_rel_alarm(AlarmId alarm, std::uint64_t offset,
                         std::uint64_t cycle) {
  if (alarm >= state_.alarms.size()) return Status::E_OS_ID;
  AlarmData& a = state_.alarms[alarm];
  if (a.armed) return Status::E_OS_STATE;
  a.armed = true;
  a.expires_at = state_.counter + (offset == 0 ? 1 : offset);
  a.cycle = cycle;
  return Status::E_OK;
}

Status Os::cancel_alarm(AlarmId alarm) {
  if (alarm >= state_.alarms.size()) return Status::E_OS_ID;
  if (!state_.alarms[alarm].armed) return Status::E_OS_NOFUNC;
  state_.alarms[alarm].armed = false;
  return Status::E_OK;
}

void Os::on_counter_tick() {
  ++state_.counter;
  for (AlarmData& alarm : state_.alarms) {
    if (!alarm.armed || alarm.expires_at != state_.counter) continue;
    (void)activate_task(alarm.activates);  // E_OS_LIMIT drops are per spec
    if (alarm.cycle != 0) {
      alarm.expires_at = state_.counter + alarm.cycle;
    } else {
      alarm.armed = false;
    }
  }
}

std::optional<TaskId> Os::dispatch() {
  TaskId best = 0;
  bool found = false;
  for (TaskId id = 0; id < state_.tasks.size(); ++id) {
    if (state_.tasks[id].state != TaskState::Ready) continue;
    if (!found || state_.tasks[id].priority > state_.tasks[best].priority) {
      best = id;
      found = true;
    }
  }
  if (!found) return std::nullopt;

  TaskData& task = state_.tasks[best];
  task.state = TaskState::Running;
  ++task.activations;
  ++state_.dispatches;
  TaskContext ctx{*this, best};
  steps_[task.step](owner_, ctx);
  // TerminateTask semantics: the body ran to completion.
  task.state = TaskState::Suspended;
  if (task.pending) {  // a queued activation becomes ready immediately
    task.pending = false;
    task.state = TaskState::Ready;
  }
  return best;
}

TaskState Os::task_state(TaskId task) const {
  return task < state_.tasks.size() ? state_.tasks[task].state : TaskState::Suspended;
}

std::uint64_t Os::activations(TaskId task) const {
  return task < state_.tasks.size() ? state_.tasks[task].activations : 0;
}

bool Os::invariants_hold() const noexcept {
  for (const TaskData& task : state_.tasks) {
    if (task.state == TaskState::Running) return false;  // between dispatches
    if (task.pending && task.state == TaskState::Suspended) return false;
  }
  return true;
}

}  // namespace mcs::guest::osek
