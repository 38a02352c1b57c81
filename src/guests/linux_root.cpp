#include "guests/linux_root.hpp"

namespace mcs::guest {

void LinuxRootImage::on_start(jh::GuestContext& ctx) {
  // on_start fires once per vCPU (Linux is SMP on the root CPUs); the
  // boot banner belongs to the boot CPU only.
  if (ctx.cpu() == 0) {
    ctx.console_puts("Linux 5.10 (jailhouse-patched) root cell up\n");
  }
  // 100 Hz jiffy tick on every root CPU.
  ctx.start_periodic_timer(10);
}

void LinuxRootImage::on_timer(jh::GuestContext& ctx) {
  ++state_.jiffies;
  if (state_.jiffies % 500 == 0) {
    ctx.console_puts("[root] jiffies " + std::to_string(state_.jiffies) + "\n");
  }
}

jh::HvcResult LinuxRootImage::last_result(jh::Hypercall op) const noexcept {
  for (auto it = state_.records.rbegin(); it != state_.records.rend(); ++it) {
    if (it->op == op) return it->result;
  }
  return jh::kHvcENoSys;
}

void LinuxRootImage::run_quantum(jh::GuestContext& ctx) {
  // The jailhouse driver's ioctls and the management shell run on the
  // boot CPU; secondary root CPUs just run background load.
  if (ctx.cpu() != 0) return;
  ++state_.quantum_counter;

  // One management command per quantum: the driver's ioctl path.
  if (!state_.pending.empty()) {
    const MgmtCommand command = state_.pending.front();
    state_.pending.pop_front();
    const jh::HvcResult result =
        ctx.hypercall(static_cast<std::uint32_t>(command.op), command.arg);
    state_.records.push_back(
        {command.op, command.arg, result, ctx.now().value});
    const std::string verdict =
        result >= 0 ? "ok"
                    : (jh::is_invalid_arguments(result) ? "Invalid argument"
                                                        : "failed");
    ctx.console_puts("jailhouse " + std::string(hypercall_name(command.op)) +
                     " -> " + verdict + " (" + std::to_string(result) + ")\n");
    if (command.op == jh::Hypercall::CellCreate && result > 0) {
      state_.last_created_cell = static_cast<std::uint32_t>(result);
    }
    return;
  }

  // Steady-state root workload: poll the monitored cell's state every
  // 50 ms (`jailhouse cell list` in a watch loop) — the root cell's
  // arch_handle_hvc() traffic for root-targeted campaigns.
  if (state_.monitored_cell != 0 && state_.quantum_counter % 50 == 0) {
    state_.last_poll_state = ctx.hypercall(
        static_cast<std::uint32_t>(jh::Hypercall::CellGetState), state_.monitored_cell);
  }
}

}  // namespace mcs::guest
