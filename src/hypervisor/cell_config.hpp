// Static cell configurations — the Jailhouse "config source file" model.
//
// "Jailhouse allows creating a static configuration for a cell by writing a
// source file according to special C structures, where each field is filled
// according to the customer needs (assigned CPU cores, memory areas and
// access permissions, IRQ enabled, etc.)" (§II-A). CellConfig mirrors those
// structures; factory functions build the paper's two-cell deployment.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/registers.hpp"
#include "irq/gic.hpp"
#include "mem/memory_map.hpp"
#include "platform/board_spec.hpp"
#include "util/status.hpp"

namespace mcs::jh {

using CellId = std::uint32_t;
inline constexpr CellId kRootCellId = 0;

/// Console routing for a cell: through a passthrough UART window, through
/// the hypervisor's trapped-MMIO UART emulation, or none.
enum class ConsoleKind : std::uint8_t {
  None,
  Passthrough,  ///< UART window mapped into the cell (no trap on access)
  Trapped,      ///< UART window NOT mapped: every access is a stage-2 trap
};

struct ConsoleConfig {
  ConsoleKind kind = ConsoleKind::None;
  std::uint64_t uart_base = 0;  ///< physical UART window the console uses

  bool operator==(const ConsoleConfig&) const = default;
};

struct CellConfig {
  std::string name;
  std::vector<int> cpus;                     ///< statically assigned cores
  std::vector<mem::MemRegion> mem_regions;   ///< guest view, with permissions
  std::vector<irq::IrqId> irqs;              ///< owned SPI lines
  ConsoleConfig console;
  arch::Word entry_point = 0;                ///< guest reset vector

  /// Structural validation (what Jailhouse's config parser rejects).
  [[nodiscard]] util::Status validate(int board_cpus) const;

  bool operator==(const CellConfig&) const = default;
};

// ---------------------------------------------------------------------------
// The paper's deployment (§III): root cell with general-purpose Linux on
// CPU 0, FreeRTOS non-root cell on CPU 1.
// ---------------------------------------------------------------------------

/// Guest-physical load addresses for the FreeRTOS cell (within the loaned
/// DRAM slice, identity-mapped like Jailhouse inmate demos).
inline constexpr std::uint64_t kFreeRtosRamBase = 0x7800'0000;
inline constexpr std::uint64_t kFreeRtosRamSize = 0x0100'0000;  // 16 MiB
inline constexpr arch::Word kFreeRtosEntry = 0x7800'0000;

/// Root cell: all of DRAM below the hypervisor reservation, every board
/// CPU at boot, UART0 console passthrough, all SPIs initially owned. The
/// spec decides the CPU set and the cell name (Jailhouse root-cell
/// configs carry the board name); the no-argument form builds the
/// paper's Banana Pi deployment.
[[nodiscard]] CellConfig make_root_cell_config();
[[nodiscard]] CellConfig make_root_cell_config(const platform::BoardSpec& spec);

/// FreeRTOS non-root cell: CPU 1, a 16 MiB DRAM slice, UART1 console routed
/// through trapped MMIO (hypervisor-emulated, as for Jailhouse's hypervisor
/// console), GIC distributor accesses trapped and virtualised.
[[nodiscard]] CellConfig make_freertos_cell_config();

/// OSEK/AUTOSAR-classic non-root cell: same shape as the FreeRTOS cell
/// (UART1 console, GPIO passthrough) but a disjoint 16 MiB slice of the
/// loanable pool, so either payload can occupy a non-root partition. The
/// CPU defaults to 1 (the Banana Pi's only spare core); boards with more
/// cores pin it elsewhere so both payloads can run *concurrently*.
inline constexpr std::uint64_t kOsekRamBase = 0x7900'0000;
inline constexpr std::uint64_t kOsekRamSize = 0x0100'0000;  // 16 MiB
inline constexpr arch::Word kOsekEntry = 0x7900'0000;

[[nodiscard]] CellConfig make_osek_cell_config(int cpu = 1);

}  // namespace mcs::jh
