// Jailhouse-style static partitioning hypervisor.
//
// Reproduces the control-flow surface the paper instruments:
//
//   * `irqchip_handle_irq()` — interrupt acknowledgement and routing;
//   * `arch_handle_trap()`   — common HYP trap dispatcher (stage-2 MMIO
//                              emulation, PSCI, unhandled-trap parking);
//   * `arch_handle_hvc()`    — hypercall dispatch with strict argument
//                              validation (the EINVAL path of §III).
//
// A single entry hook fires at each of the three functions with the live
// EntryFrame; the fault-injection framework (src/core) registers there —
// mirroring the paper's "dozen of lines of code added to Jailhouse".
//
// Handler register liveness (what a bit flip can break) is documented per
// entry point in DESIGN.md §5 and enforced here:
//   r0  trap-context pointer  → corruption ⇒ hypervisor panic (panic park)
//   r1  syndrome (HSR)        → EC/ISV corruption ⇒ unhandled trap ⇒ cpu park
//   r2  payload: hypercall code / fault address
//   r3  payload: hypercall arg0 / MMIO write value
//   r4  payload: hypercall arg1
//   r12 per-CPU block pointer → corruption ⇒ panic
//   sp/lr/pc                  → corruption ⇒ panic
//   r5-r11 dead at entry      → corruption ⇒ no effect
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/cpu.hpp"
#include "hypervisor/cell.hpp"
#include "hypervisor/cell_config.hpp"
#include "hypervisor/hypercall.hpp"
#include "platform/board.hpp"
#include "util/status.hpp"

namespace mcs::jh {

/// The three instrumented hypervisor functions (§III of the paper).
enum class HookPoint : std::uint8_t {
  IrqchipHandleIrq,
  ArchHandleTrap,
  ArchHandleHvc,
};

inline constexpr std::size_t kNumHookPoints = 3;

[[nodiscard]] std::string_view hook_point_name(HookPoint point) noexcept;

/// GIC distributor window the hypervisor traps and virtualises (A20 GIC).
inline constexpr std::uint64_t kGicDistBase = 0x01c8'1000;
inline constexpr std::uint64_t kGicDistSize = 0x1000;

/// How a trap entry ended.
enum class TrapAction : std::uint8_t {
  Resume,    ///< handled; guest resumes
  CpuParked, ///< unhandled trap → cpu_park(); this core is done
  Panicked,  ///< hypervisor panic; the whole system is down
};

struct TrapOutcome {
  TrapAction action = TrapAction::Resume;
  HvcResult hvc_result = 0;             ///< valid for hypercall entries
  std::uint32_t mmio_read_value = 0;    ///< valid for emulated MMIO reads
};

/// How an irqchip entry ended (E4's observable).
enum class IrqOutcome : std::uint8_t {
  Delivered,      ///< routed to the owning cell
  TimerTick,      ///< virtual-timer PPI delivered to the owning cell
  Spurious,       ///< nothing pending / corrupted id out of range
  Unowned,        ///< valid id but no owner — logged and dropped
};

struct IrqDelivery {
  std::uint32_t vector = 0;  ///< what the handler *believed* it delivered
  IrqOutcome outcome = IrqOutcome::Spurious;
  CellId cell = kRootCellId;
};

/// Aggregate counters (golden-run profiling reads these; the paper's
/// profiling step picked the three candidate functions from exactly such
/// counts).
struct Counters {
  std::uint64_t traps = 0;
  std::uint64_t hvcs = 0;
  std::uint64_t irqs = 0;
  std::uint64_t mmio_emulations = 0;
  std::uint64_t unhandled_traps = 0;
  std::uint64_t cpu_parks = 0;
  std::uint64_t panics = 0;
  std::uint64_t hypercall_errors = 0;

  bool operator==(const Counters&) const = default;
};

class Hypervisor {
 public:
  /// The board must outlive the hypervisor.
  explicit Hypervisor(platform::Board& board);

  Hypervisor(const Hypervisor&) = delete;
  Hypervisor& operator=(const Hypervisor&) = delete;

  // --- lifecycle --------------------------------------------------------
  /// `jailhouse enable`: install the root cell, take over the CPUs.
  util::Status enable(CellConfig root_config);
  [[nodiscard]] bool is_enabled() const noexcept { return state_.enabled; }

  // --- root-driver side: config registry --------------------------------
  /// The root driver copies a cell config into kernel memory and passes
  /// its address to the create hypercall; this registers that address.
  void register_config(std::uint64_t addr, CellConfig config);

  // --- the three instrumented entry points ------------------------------
  /// Interrupt entry for `cpu`: acknowledge, fire hook, route, EOI.
  /// Returns nullopt when nothing (or only spurious work) was pending.
  std::optional<IrqDelivery> irqchip_handle_irq(int cpu);

  /// Common trap dispatcher. The frame is the live register view; the
  /// entry hook may corrupt it before the handler consumes it.
  TrapOutcome arch_handle_trap(arch::EntryFrame& frame);

  /// Hypercall dispatcher (EC = HVC); called from arch_handle_trap.
  HvcResult arch_handle_hvc(arch::EntryFrame& frame);

  // --- guest-facing trap generators --------------------------------------
  /// Guest executes `hvc #0` with code/args: builds the entry frame and
  /// runs the full trap path.
  HvcResult guest_hypercall(int cpu, std::uint32_t code, std::uint32_t arg0 = 0,
                            std::uint32_t arg1 = 0);

  /// Guest data access that missed stage-2: data-abort trap, possibly
  /// MMIO-emulated. Returns the trap outcome (read value inside).
  TrapOutcome guest_data_abort(int cpu, std::uint64_t addr, std::uint32_t value,
                               bool is_write);

  /// CPU hot-plug bring-up entry: the first HYP entry a core takes after
  /// PSCI CPU_ON, validating the entry gate before the guest runs. Fired
  /// by the Machine while the core is Booting. Injection applies here too
  /// — this is where §III's inconsistent cell state is born.
  void cpu_bringup_entry(int cpu);

  // --- fault-injection hook ----------------------------------------------
  using EntryHook = std::function<void(HookPoint, arch::EntryFrame&)>;
  void set_entry_hook(EntryHook hook) { hook_ = std::move(hook); }
  void clear_entry_hook() { hook_ = nullptr; }

  // --- state queries ------------------------------------------------------
  [[nodiscard]] Cell* find_cell(CellId id) noexcept;
  [[nodiscard]] const Cell* find_cell(CellId id) const noexcept;
  [[nodiscard]] Cell& root_cell() noexcept { return *cells_.at(kRootCellId); }
  [[nodiscard]] std::vector<Cell*> cells() noexcept;
  [[nodiscard]] Cell* cell_on_cpu(int cpu) noexcept;
  [[nodiscard]] CellId cpu_owner(int cpu) const noexcept;

  [[nodiscard]] bool is_panicked() const noexcept { return state_.panicked; }
  [[nodiscard]] const std::string& panic_reason() const noexcept {
    return state_.panic_reason;
  }

  [[nodiscard]] const Counters& counters() const noexcept { return state_.counters; }
  [[nodiscard]] platform::Board& board() noexcept { return *board_; }

  /// Stage-2 TLB totals summed over live cells plus every cell retired so
  /// far (destroy/disable/restore take a cell's counters into the retired
  /// tally first, so the totals are monotonic instrumentation — never
  /// snapshotted or restored; consumers window them by differencing).
  [[nodiscard]] std::uint64_t stage2_tlb_hits() const noexcept;
  [[nodiscard]] std::uint64_t stage2_tlb_misses() const noexcept;

  // --- snapshot / restore ------------------------------------------------
  /// The hypervisor's own run-mutable fields, declared once. The entry
  /// hook is detached between runs, so it is not state: restore always
  /// leaves it detached.
  struct State {
    bool enabled = false;
    bool panicked = false;
    std::string panic_reason;
    Counters counters;
    CellId next_cell_id = 1;
    std::array<CellId, irq::kMaxCpus> cpu_owner{};  ///< all root at power-on

    bool operator==(const State&) const = default;
  };

  /// Everything a run can mutate: the state block, every cell, and the
  /// config registry. A snapshot taken right after construction is the
  /// power-on image (no cells, no configs).
  struct Snapshot {
    State state;
    std::vector<Cell::Snapshot> cells;  ///< in ascending id order
    std::map<std::uint64_t, CellConfig> config_registry;

    bool operator==(const Snapshot&) const = default;
  };

  void snapshot_to(Snapshot& out) const;

  /// Restore in place: live cells matching a captured id are rewound
  /// without reallocation; cells created after capture are erased; cells
  /// destroyed after capture are rebuilt from their captured config. The
  /// config registry is copied only when it differs (map copy-assignment
  /// re-constructs every node), so the steady restore path allocates
  /// nothing.
  void restore_from(const Snapshot& snapshot);

 private:
  // Hypercall implementations (validation-first, per the real ABI).
  HvcResult do_cell_create(int cpu, std::uint32_t config_addr);
  HvcResult do_cell_start(std::uint32_t id);
  HvcResult do_cell_set_loadable(std::uint32_t id);
  HvcResult do_cell_shutdown(std::uint32_t id);
  HvcResult do_cell_destroy(std::uint32_t id);
  HvcResult do_cell_get_state(std::uint32_t id);
  HvcResult do_cpu_get_info(std::uint32_t cpu);
  HvcResult do_debug_console_putc(std::uint32_t ch);
  HvcResult do_disable(int cpu);

  /// Reclaim a cell's CPUs and IRQ lines for the root cell (shutdown and
  /// destroy share this; it is the §III "gives the control of the CPU and
  /// the non-root cell peripherals back to the root cell" path).
  void reclaim_cell_resources(Cell& cell);

  /// Stage-2 MMIO emulation: trapped console UART + virtual GIC
  /// distributor. Returns false when no emulation claims the address —
  /// the unhandled-trap (0x24) path.
  bool emulate_mmio(Cell& cell, int cpu, std::uint64_t addr, std::uint32_t value,
                    bool is_write, std::uint32_t& read_value);

  bool emulate_gicd(Cell& cell, std::uint64_t offset, std::uint32_t value,
                    bool is_write, std::uint32_t& read_value);

  /// Fatal hypervisor failure: park every core, freeze management. The
  /// paper's "panic park — the fault propagates to the whole system".
  void panic(int cpu, std::string reason);

  /// Unhandled trap: log the exception class, park this core only. The
  /// paper's "CPU park" (error code 0x24 path).
  void unhandled_trap(int cpu, std::uint8_t ec_bits, const std::string& detail);

  void fire_hook(HookPoint point, arch::EntryFrame& frame) {
    if (hook_) hook_(point, frame);
  }

  void log(util::Severity severity, int cpu, std::string message);

  [[nodiscard]] arch::EntryFrame make_frame(int cpu, arch::Syndrome hsr,
                                            std::uint32_t r2 = 0,
                                            std::uint32_t r3 = 0,
                                            std::uint32_t r4 = 0) const;

  /// Validates the trap-level working set (r0/r12/sp/lr/pc). Returns
  /// false after initiating a panic.
  bool check_entry_integrity(const arch::EntryFrame& frame);

  platform::Board* board_;
  State state_;
  EntryHook hook_;
  /// Fold a dying cell's TLB counters into the retired tally (call before
  /// any cells_.erase()/clear() so stage2_tlb_* stays monotonic).
  void retire_tlb_counters(const Cell& cell) noexcept;
  void retire_all_tlb_counters() noexcept;

  std::map<CellId, std::unique_ptr<Cell>> cells_;
  std::map<std::uint64_t, CellConfig> config_registry_;
  /// Monotonic instrumentation (see stage2_tlb_hits): survives snapshot
  /// restore (power-on included) by design.
  std::uint64_t retired_tlb_hits_ = 0;
  std::uint64_t retired_tlb_misses_ = 0;
};

}  // namespace mcs::jh
