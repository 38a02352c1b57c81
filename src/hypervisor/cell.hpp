// Cell: one partition, its state machine and resources.
//
// The paper's headline finding is a *divergence* between the hypervisor's
// bookkeeping ("it is considered running by Jailhouse") and the physical
// truth (the CPU never came online, the cell is "completely broken and
// unusable"). The model therefore keeps the two separate on purpose:
// Cell::state() is bookkeeping the hypervisor maintains; the CPUs' power
// states are ground truth owned by arch::Cpu. The run monitor compares
// them to detect the inconsistent state.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hypervisor/cell_config.hpp"
#include "mem/address_space.hpp"
#include "mem/memory_map.hpp"
#include "util/status.hpp"

namespace mcs::jh {

/// Jailhouse cell states (JAILHOUSE_CELL_*).
enum class CellState : std::uint8_t {
  Created,   ///< config accepted, memory loaned, not started ("shut down")
  Running,   ///< started; bookkeeping only — CPUs may disagree
  ShutDown,  ///< shut down after running; resources returned to root
  Failed,    ///< hypervisor marked the cell failed (panic in cell context)
};

[[nodiscard]] std::string_view cell_state_name(CellState state) noexcept;

class Cell {
 public:
  Cell(CellId id, CellConfig config, mem::PhysicalMemory& dram);

  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

  [[nodiscard]] CellId id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return config_.name; }
  [[nodiscard]] const CellConfig& config() const noexcept { return config_; }

  [[nodiscard]] CellState state() const noexcept { return state_.lifecycle; }
  void set_state(CellState state) noexcept { state_.lifecycle = state; }

  [[nodiscard]] bool owns_cpu(int cpu) const noexcept;
  [[nodiscard]] bool owns_irq(irq::IrqId irq) const noexcept;

  [[nodiscard]] mem::MemoryMap& memory_map() noexcept { return map_; }
  [[nodiscard]] const mem::MemoryMap& memory_map() const noexcept { return map_; }
  [[nodiscard]] mem::AddressSpace& address_space() noexcept { return space_; }
  [[nodiscard]] const mem::AddressSpace& address_space() const noexcept {
    return space_;
  }

  /// Regions carved out of the root cell at create time, to be restored at
  /// destroy time.
  [[nodiscard]] std::vector<mem::MemRegion>& loaned_regions() noexcept {
    return state_.loaned;
  }

  // --- statistics the profiler and monitor read -------------------------
  /// Bytes emitted through the console path.
  [[nodiscard]] std::uint64_t console_bytes() const noexcept {
    return state_.console_bytes;
  }
  /// Hypercalls issued by this cell.
  [[nodiscard]] std::uint64_t hypercalls() const noexcept { return state_.hypercalls; }
  /// Trapped MMIO accesses.
  [[nodiscard]] std::uint64_t stage2_faults() const noexcept {
    return state_.stage2_faults;
  }
  void count_console_byte() noexcept { ++state_.console_bytes; }
  void count_hypercall() noexcept { ++state_.hypercalls; }
  void count_stage2_fault() noexcept { ++state_.stage2_faults; }

  // --- snapshot / restore (testbed warm-start) --------------------------
  /// The cell's own run-mutable fields, declared once.
  struct State {
    CellState lifecycle = CellState::Created;
    std::vector<mem::MemRegion> loaned;
    std::uint64_t console_bytes = 0;
    std::uint64_t hypercalls = 0;
    std::uint64_t stage2_faults = 0;

    bool operator==(const State&) const = default;
  };

  /// Cell identity is (id, config): ids are allocated monotonically and
  /// configs are fixed at create, so a live cell whose id matches a
  /// snapshot entry *is* the captured cell and is restored in place. The
  /// config is carried only so a cell destroyed after capture can be
  /// re-created. The memory map and the address space's fault count are
  /// their owners' state.
  struct Snapshot {
    CellId id = kRootCellId;
    CellConfig config;
    State state;
    mem::MemoryMap::Snapshot map;
    std::uint64_t space_faults = 0;

    bool operator==(const Snapshot&) const = default;
  };

  void snapshot_to(Snapshot& out) const {
    out.id = id_;
    out.config = config_;
    out.state = state_;
    map_.snapshot_to(out.map);
    out.space_faults = space_.fault_count();
  }

  void restore_from(const Snapshot& snapshot) {
    state_ = snapshot.state;
    map_.restore_from(snapshot.map);
    space_.set_fault_count(snapshot.space_faults);
  }

 private:
  CellId id_;
  CellConfig config_;
  mem::MemoryMap map_;
  mem::AddressSpace space_;
  State state_;
};

}  // namespace mcs::jh
