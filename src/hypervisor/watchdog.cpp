#include "hypervisor/watchdog.hpp"

#include <algorithm>
#include <limits>

namespace mcs::jh {

std::string_view watchdog_alarm_name(WatchdogAlarm alarm) noexcept {
  switch (alarm) {
    case WatchdogAlarm::CpuDead: return "cpu-dead";
    case WatchdogAlarm::CpuParked: return "cpu-parked";
    case WatchdogAlarm::NoProgress: return "no-progress";
  }
  return "?";
}

std::uint64_t CellWatchdog::ticks_to_next_check() const noexcept {
  if (options_.check_period == 0) return std::numeric_limits<std::uint64_t>::max();
  return options_.check_period - (ticks_ % options_.check_period);
}

void CellWatchdog::on_ticks(std::uint64_t n) {
  if (options_.check_period == 0) {
    ticks_ += n;
    return;
  }
  while (n > 0) {
    const std::uint64_t step = std::min(n, ticks_to_next_check());
    ticks_ += step;
    n -= step;
    if (ticks_ % options_.check_period == 0) check_now();
  }
}

void CellWatchdog::check_now() {
  if (hv_->is_panicked()) return;  // nothing left to supervise
  for (Cell* cell : hv_->cells()) {
    if (cell->id() == kRootCellId) continue;
    if (cell->state() != CellState::Running) {
      tracked_.erase(cell->id());
      continue;
    }
    check_cell(*cell);
  }
}

void CellWatchdog::check_cell(Cell& cell) {
  Tracked& state = tracked_[cell.id()];
  platform::Board& board = hv_->board();

  // 1. Bookkeeping vs physical truth.
  for (const int cpu : cell.config().cpus) {
    const arch::Cpu& core = board.cpu(cpu);
    switch (core.power_state()) {
      case arch::PowerState::On:
        break;
      case arch::PowerState::Parked:
        raise(cell, WatchdogAlarm::CpuParked,
              "cpu" + std::to_string(cpu) + " parked: " + core.halt_reason());
        return;
      case arch::PowerState::Failed:
      case arch::PowerState::Booting:
      case arch::PowerState::Off:
        raise(cell, WatchdogAlarm::CpuDead,
              "cell reported running but cpu" + std::to_string(cpu) + " is " +
                  std::string(arch::power_state_name(core.power_state())) +
                  (core.halt_reason().empty() ? "" : ": " + core.halt_reason()));
        return;
    }
  }

  // 2. Liveness progress: console bytes or hypervisor entries must move.
  const std::uint64_t entries = cell.hypercalls() + cell.stage2_faults();
  if (cell.console_bytes() == state.last_console_bytes &&
      entries == state.last_entries) {
    if (++state.silent_checks >= options_.silence_threshold) {
      raise(cell, WatchdogAlarm::NoProgress,
            "no console output and no hypervisor entries for " +
                std::to_string(state.silent_checks) + " checks");
      return;
    }
  } else {
    state.silent_checks = 0;
    state.alarmed = false;  // the incident (if any) is over
  }
  state.last_console_bytes = cell.console_bytes();
  state.last_entries = entries;
}

void CellWatchdog::raise(Cell& cell, WatchdogAlarm alarm, std::string detail) {
  Tracked& state = tracked_[cell.id()];
  if (state.alarmed) return;  // one alarm per incident
  state.alarmed = true;

  WatchdogEvent event;
  event.tick = hv_->board().now().value;
  event.cell = cell.id();
  event.alarm = alarm;
  event.detail = detail;

  hv_->board().log().log(
      hv_->board().now(), util::Severity::Error, "watchdog", -1,
      "cell '" + cell.name() + "' " + std::string(watchdog_alarm_name(alarm)) +
          ": " + detail);

  if (options_.policy == RemediationPolicy::AutoShutdown) {
    // The §III manual recovery, automated: shut the cell down from the
    // hypervisor side, returning CPUs and peripherals to the root cell.
    const HvcResult result = hv_->guest_hypercall(
        0, static_cast<std::uint32_t>(Hypercall::CellShutdown), cell.id());
    event.remediated = result == 0;
    if (event.remediated) {
      ++remediations_;
      tracked_.erase(cell.id());
    }
  }
  events_.push_back(std::move(event));
}

std::uint64_t CellWatchdog::first_alarm_tick(CellId cell) const noexcept {
  for (const WatchdogEvent& event : events_) {
    if (event.cell == cell) return event.tick;
  }
  return 0;
}

}  // namespace mcs::jh
