// Root-cell model: general-purpose Linux plus the Jailhouse kernel driver
// and its management CLI.
//
// The experiments drive cell lifecycle from here exactly like `jailhouse
// cell create/start/shutdown/destroy` on the real board: commands are
// queued, the driver issues the hypercalls from CPU 0 and records each
// result — including the "Invalid argument" failures §III reports under
// high-intensity injection.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "hypervisor/guest.hpp"
#include "hypervisor/hypercall.hpp"

namespace mcs::guest {

/// One management command (a `jailhouse` CLI invocation).
struct MgmtCommand {
  jh::Hypercall op = jh::Hypercall::CellGetState;
  std::uint32_t arg = 0;  ///< config address for create, cell id otherwise

  bool operator==(const MgmtCommand&) const = default;
};

/// Result record the driver keeps (what the shell would have printed).
struct MgmtRecord {
  jh::Hypercall op;
  std::uint32_t arg = 0;
  jh::HvcResult result = 0;
  std::uint64_t tick = 0;

  bool operator==(const MgmtRecord&) const = default;
};

class LinuxRootImage final : public jh::GuestImage {
 public:
  LinuxRootImage() = default;

  [[nodiscard]] std::string_view name() const override { return "linux-root"; }
  void on_start(jh::GuestContext& ctx) override;
  void run_quantum(jh::GuestContext& ctx) override;
  void on_timer(jh::GuestContext& ctx) override;

  // --- management interface (the `jailhouse` CLI) ------------------------
  void enqueue(MgmtCommand command) { state_.pending.push_back(command); }
  void cell_create(std::uint32_t config_addr) {
    enqueue({jh::Hypercall::CellCreate, config_addr});
  }
  void cell_start(std::uint32_t id) { enqueue({jh::Hypercall::CellStart, id}); }
  void cell_shutdown(std::uint32_t id) {
    enqueue({jh::Hypercall::CellShutdown, id});
  }
  void cell_destroy(std::uint32_t id) {
    enqueue({jh::Hypercall::CellDestroy, id});
  }

  [[nodiscard]] const std::vector<MgmtRecord>& records() const noexcept {
    return state_.records;
  }
  [[nodiscard]] bool idle() const noexcept { return state_.pending.empty(); }

  /// Last result for an op, or ENOSYS when never issued.
  [[nodiscard]] jh::HvcResult last_result(jh::Hypercall op) const noexcept;

  /// Id returned by the most recent successful cell create (0 = none).
  [[nodiscard]] std::uint32_t last_created_cell() const noexcept {
    return state_.last_created_cell;
  }

  /// Periodic `jailhouse cell list` polling target (0 disables polling).
  void set_monitored_cell(std::uint32_t id) noexcept { state_.monitored_cell = id; }
  [[nodiscard]] jh::HvcResult last_poll_state() const noexcept {
    return state_.last_poll_state;
  }

  [[nodiscard]] std::uint64_t jiffies() const noexcept { return state_.jiffies; }

  // --- snapshot / restore ------------------------------------------------
  /// The root image's run-mutable fields (command queue, result records,
  /// last results, jiffies), declared once: the state block is the
  /// snapshot. A boot issues a handful of commands, so the records are
  /// copied whole.
  struct State {
    std::deque<MgmtCommand> pending;
    std::vector<MgmtRecord> records;
    std::uint32_t last_created_cell = 0;
    std::uint32_t monitored_cell = 0;
    jh::HvcResult last_poll_state = jh::kHvcENoEnt;
    std::uint64_t jiffies = 0;
    std::uint64_t quantum_counter = 0;

    bool operator==(const State&) const = default;
  };

  using Snapshot = State;

  void snapshot_to(Snapshot& out) const { out = state_; }

  void restore_from(const Snapshot& snapshot) { state_ = snapshot; }

 private:
  State state_;
};

}  // namespace mcs::guest
