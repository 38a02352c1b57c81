// Quickstart: boot the paper's testbed, run it fault-free for ten seconds
// of board time, and show what a *golden run* looks like — the profiling
// step the authors used to pick the three injection candidates.
//
//   $ ./quickstart
#include <iostream>

#include "core/testbed.hpp"

int main() {
  using namespace mcs;

  fi::Testbed testbed;
  if (const util::Status status = testbed.enable_hypervisor(); !status.is_ok()) {
    std::cerr << "enable failed: " << status << "\n";
    return 1;
  }
  testbed.boot_freertos_cell();

  std::cout << "== golden run: 10 s of board time ==\n";
  const auto profile = testbed.profile_golden(10'000);

  std::cout << "hypervisor entries (the three fault-injection candidates):\n"
            << "  irqchip_handle_irq : " << profile.irqchip_entries << "\n"
            << "  arch_handle_trap   : " << profile.trap_entries << "\n"
            << "  arch_handle_hvc    : " << profile.hvc_entries << "\n"
            << "  traps on cpu0/cpu1 : " << profile.per_cpu_traps[0] << " / "
            << profile.per_cpu_traps[1] << "\n\n";

  jh::Cell* cell = testbed.freertos_cell();
  std::cout << "cells:\n";
  for (jh::Cell* c : testbed.hypervisor().cells()) {
    std::cout << "  [" << c->id() << "] '" << c->name() << "' state="
              << jh::cell_state_name(c->state()) << "\n";
  }
  std::cout << "\nFreeRTOS workload health:\n"
            << "  LED blinks          : " << testbed.freertos().blink_count() << "\n"
            << "  messages validated  : "
            << testbed.freertos().messages_validated() << "\n"
            << "  data errors         : " << testbed.freertos().data_errors() << "\n"
            << "  console bytes (cell): "
            << (cell != nullptr ? cell->console_bytes() : 0) << "\n\n";

  const auto lines = testbed.board().uart1().lines();
  std::cout << "last USART lines from the non-root cell:\n";
  const std::size_t start = lines.size() > 8 ? lines.size() - 8 : 0;
  for (std::size_t i = start; i < lines.size(); ++i) {
    std::cout << "  | " << lines[i] << "\n";
  }
  return 0;
}
