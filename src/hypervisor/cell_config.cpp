#include "hypervisor/cell_config.hpp"

#include <unordered_set>

#include "mem/phys_mem.hpp"
#include "platform/board.hpp"

namespace mcs::jh {

util::Status CellConfig::validate(int board_cpus) const {
  if (name.empty()) return util::invalid_argument("cell name empty");
  if (cpus.empty()) return util::invalid_argument("cell has no CPUs");
  std::unordered_set<int> seen;
  for (const int cpu : cpus) {
    if (cpu < 0 || cpu >= board_cpus) {
      return util::invalid_argument("cell cpu out of range: " + std::to_string(cpu));
    }
    if (!seen.insert(cpu).second) {
      return util::invalid_argument("duplicate cpu in cell config");
    }
  }
  for (std::size_t i = 0; i < mem_regions.size(); ++i) {
    const mem::MemRegion& region = mem_regions[i];
    if (region.size == 0) {
      return util::invalid_argument("zero-sized region '" + region.name + "'");
    }
    if (region.size > UINT64_MAX - region.phys_start ||
        region.size > UINT64_MAX - region.virt_start) {
      return util::invalid_argument("region '" + region.name +
                                    "' wraps past the end of the address space");
    }
    for (std::size_t j = i + 1; j < mem_regions.size(); ++j) {
      if (region.overlaps_guest(mem_regions[j])) {
        return util::invalid_argument("regions '" + region.name +
                                      "' and '" + mem_regions[j].name +
                                      "' overlap");
      }
    }
  }
  for (const irq::IrqId irq : irqs) {
    if (!irq::is_spi(irq)) {
      return util::invalid_argument("cell may only own SPIs, got " +
                                    std::to_string(irq));
    }
  }
  return util::ok_status();
}

CellConfig make_root_cell_config() { return make_root_cell_config(platform::bananapi_spec()); }

CellConfig make_root_cell_config(const platform::BoardSpec& spec) {
  CellConfig config;
  // Jailhouse root-cell configs carry the board name; keep the paper's
  // "banana-pi" spelling for the paper's board.
  config.name = spec.name == "bananapi" ? "banana-pi" : spec.name;
  for (int cpu = 0; cpu < spec.num_cpus; ++cpu) config.cpus.push_back(cpu);

  // DRAM below the hypervisor reservation at the top of the GiB.
  mem::MemRegion ram;
  ram.name = "ram";
  ram.phys_start = mem::kDramBase;
  ram.virt_start = mem::kDramBase;
  ram.size = 0x3800'0000;  // 896 MiB; then the loanable pool, then the
                           // hypervisor reservation at the top of the GiB
  ram.flags = mem::kMemRead | mem::kMemWrite | mem::kMemExecute | mem::kMemDma;
  config.mem_regions.push_back(ram);

  // Loanable pool: DRAM the root cell cedes to non-root cells on create.
  mem::MemRegion pool;
  pool.name = "inmate-pool";
  pool.phys_start = kFreeRtosRamBase;
  pool.virt_start = kFreeRtosRamBase;
  pool.size = 0x0400'0000;  // 64 MiB
  pool.flags = mem::kMemRead | mem::kMemWrite | mem::kMemLoadable;
  config.mem_regions.push_back(pool);

  // UART0 passthrough: the root console never traps.
  mem::MemRegion uart0;
  uart0.name = "uart0";
  uart0.phys_start = platform::kUart0Base;
  uart0.virt_start = platform::kUart0Base;
  uart0.size = 0x400;
  uart0.flags = mem::kMemRead | mem::kMemWrite | mem::kMemIo;
  config.mem_regions.push_back(uart0);

  // UART1: owned by the root at boot, loaned to the non-root cell at
  // create time (the cell config below claims it, the create path carves
  // it out of the root map).
  mem::MemRegion uart1;
  uart1.name = "uart1";
  uart1.phys_start = platform::kUart1Base;
  uart1.virt_start = platform::kUart1Base;
  uart1.size = 0x400;
  uart1.flags = mem::kMemRead | mem::kMemWrite | mem::kMemIo;
  config.mem_regions.push_back(uart1);

  // Timer and GPIO blocks, passthrough to the root cell.
  mem::MemRegion timer;
  timer.name = "timer";
  timer.phys_start = platform::kTimerBase;
  timer.virt_start = platform::kTimerBase;
  timer.size = 0x200;
  timer.flags = mem::kMemRead | mem::kMemWrite | mem::kMemIo;
  config.mem_regions.push_back(timer);

  mem::MemRegion gpio;
  gpio.name = "gpio";
  gpio.phys_start = platform::kGpioBase;
  gpio.virt_start = platform::kGpioBase;
  gpio.size = 0x100;
  gpio.flags = mem::kMemRead | mem::kMemWrite | mem::kMemIo;
  config.mem_regions.push_back(gpio);

  config.irqs = {platform::kUart0Irq, platform::kUart1Irq};
  config.console = {ConsoleKind::Passthrough, platform::kUart0Base};
  config.entry_point = mem::kDramBase + 0x8000;  // zImage-style load address
  return config;
}

CellConfig make_freertos_cell_config() {
  CellConfig config;
  config.name = "freertos-cell";
  config.cpus = {1};

  mem::MemRegion ram;
  ram.name = "ram";
  ram.phys_start = kFreeRtosRamBase;
  ram.virt_start = kFreeRtosRamBase;  // identity map, like the inmate demos
  ram.size = kFreeRtosRamSize;
  ram.flags = mem::kMemRead | mem::kMemWrite | mem::kMemExecute |
              mem::kMemLoadable;
  config.mem_regions.push_back(ram);

  // The blink task drives the on-board LED: GPIO block passthrough,
  // carved out of the root cell while this cell exists.
  mem::MemRegion gpio;
  gpio.name = "gpio";
  gpio.phys_start = platform::kGpioBase;
  gpio.virt_start = platform::kGpioBase;
  gpio.size = 0x100;
  gpio.flags = mem::kMemRead | mem::kMemWrite | mem::kMemIo;
  config.mem_regions.push_back(gpio);

  // UART1 passthrough: the non-root USART the paper watches. Like the
  // Jailhouse inmate demos, console bytes go straight to the device; the
  // cell's arch_handle_trap() traffic comes from the virtualised GIC
  // distributor and from hypercalls instead.
  mem::MemRegion uart1;
  uart1.name = "uart1";
  uart1.phys_start = platform::kUart1Base;
  uart1.virt_start = platform::kUart1Base;
  uart1.size = 0x400;
  uart1.flags = mem::kMemRead | mem::kMemWrite | mem::kMemIo;
  config.mem_regions.push_back(uart1);

  config.irqs = {platform::kUart1Irq};
  config.console = {ConsoleKind::Passthrough, platform::kUart1Base};
  config.entry_point = kFreeRtosEntry;
  return config;
}

CellConfig make_osek_cell_config(int cpu) {
  CellConfig config;
  config.name = "osek-cell";
  config.cpus = {cpu};

  mem::MemRegion ram;
  ram.name = "ram";
  ram.phys_start = kOsekRamBase;
  ram.virt_start = kOsekRamBase;  // identity map, like the inmate demos
  ram.size = kOsekRamSize;
  ram.flags = mem::kMemRead | mem::kMemWrite | mem::kMemExecute |
              mem::kMemLoadable;
  config.mem_regions.push_back(ram);

  // External-watchdog kick task drives the LED line, like the FreeRTOS
  // blink task: GPIO block passthrough while this cell exists.
  mem::MemRegion gpio;
  gpio.name = "gpio";
  gpio.phys_start = platform::kGpioBase;
  gpio.virt_start = platform::kGpioBase;
  gpio.size = 0x100;
  gpio.flags = mem::kMemRead | mem::kMemWrite | mem::kMemIo;
  config.mem_regions.push_back(gpio);

  // UART1 passthrough: the CAN-ish frame stream the monitor watches is
  // the same non-root USART observable as the FreeRTOS cell's.
  mem::MemRegion uart1;
  uart1.name = "uart1";
  uart1.phys_start = platform::kUart1Base;
  uart1.virt_start = platform::kUart1Base;
  uart1.size = 0x400;
  uart1.flags = mem::kMemRead | mem::kMemWrite | mem::kMemIo;
  config.mem_regions.push_back(uart1);

  config.irqs = {platform::kUart1Irq};
  config.console = {ConsoleKind::Passthrough, platform::kUart1Base};
  config.entry_point = kOsekEntry;
  return config;
}

}  // namespace mcs::jh
