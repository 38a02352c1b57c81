#include "arch/cpu.hpp"

#include <utility>

namespace mcs::arch {

std::string_view power_state_name(PowerState state) noexcept {
  switch (state) {
    case PowerState::Off: return "off";
    case PowerState::Booting: return "booting";
    case PowerState::On: return "on";
    case PowerState::Parked: return "parked";
    case PowerState::Failed: return "failed";
  }
  return "?";
}

Cpu::Cpu(int id) noexcept : id_(id) {
  state_.cpsr.set_mode(Mode::Supervisor);
}

Word Cpu::hyp_stack_base() const noexcept {
  return kHypFirmwareBase + static_cast<Word>(id_) * kHypStackSize;
}

Word Cpu::hyp_stack_top() const noexcept {
  return hyp_stack_base() + kHypStackSize;
}

util::Status Cpu::power_on(Word entry) noexcept {
  switch (state_.power) {
    case PowerState::On:
    case PowerState::Booting:
      return util::busy("cpu already on");
    case PowerState::Parked:
      return util::busy("cpu parked; reset required");
    case PowerState::Off:
    case PowerState::Failed:
      break;
  }
  state_.entry_point = entry;
  state_.power = PowerState::Booting;
  state_.halt_reason.clear();
  return util::ok_status();
}

util::Status Cpu::complete_boot() noexcept {
  if (state_.power != PowerState::Booting) {
    return util::Status(util::Code::EInval, "cpu not in bring-up");
  }
  state_.power = PowerState::On;
  state_.regs.set(Reg::PC, state_.entry_point);
  state_.cpsr.set_mode(Mode::Supervisor);
  return util::ok_status();
}

void Cpu::fail_boot(std::string reason) {
  state_.power = PowerState::Failed;
  state_.halt_reason = std::move(reason);
}

void Cpu::park(std::string reason) {
  state_.power = PowerState::Parked;
  state_.halt_reason = std::move(reason);
}

void Cpu::power_off() noexcept {
  state_.power = PowerState::Off;
  state_.halt_reason.clear();
  state_.entry_point = 0;
}

EntryFrame Cpu::make_trap_frame(Syndrome hsr) const {
  EntryFrame frame;
  frame.cpu = id_;
  frame.hsr = hsr;
  frame.guest_cpsr = state_.cpsr;
  frame.guest_pc = state_.regs.get(Reg::PC);
  frame.bank = state_.regs;
  // The entry stub materialises the handler's working set: r0 holds the
  // pointer to the on-stack trap context, r1 the HSR value just read,
  // r2-r4 the trap payload (hypercall code/args, or fault address/value —
  // the caller fills them), r12 the per-CPU block pointer, sp the HYP
  // stack pointer, lr the return trampoline, pc the handler itself. The
  // guest return address lives in ELR_hyp (a banked system register), so
  // it is *not* exposed to general-purpose-register bit flips — which is
  // architecturally accurate for HYP-mode entries.
  frame.bank.set(Reg::R0, expected_trap_context());
  frame.bank.set(Reg::R1, hsr.raw());
  frame.bank.set(Reg::R12, expected_percpu());
  frame.bank.set(Reg::SP, expected_hyp_sp());
  frame.bank.set(Reg::LR, kReturnTrampoline);
  frame.bank.set(Reg::PC, kTrapHandlerPc);
  return frame;
}

}  // namespace mcs::arch
