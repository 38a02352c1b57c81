// AUTOSAR-classic-style guest image: the OSEK OS running an automotive
// task set (brake-pressure sampling, CAN-ish frame exchange over the cell
// console, and a watchdog-kick task). An alternative non-root payload that
// shows the fault-injection methodology is guest-agnostic — the hypervisor
// entry points, not the guest, define the failure modes.
#pragma once

#include <cstdint>
#include <string>

#include "guests/osek/os.hpp"
#include "hypervisor/guest.hpp"

namespace mcs::guest {

class OsekImage final : public jh::GuestImage {
 public:
  OsekImage() noexcept : os_(kSteps, this) {}

  [[nodiscard]] std::string_view name() const override { return "autosar-osek"; }
  void on_start(jh::GuestContext& ctx) override;
  void run_quantum(jh::GuestContext& ctx) override;
  void on_timer(jh::GuestContext& ctx) override;
  void on_irq(jh::GuestContext& ctx, std::uint32_t irq) override;

  [[nodiscard]] osek::Os& os() noexcept { return os_; }

  // --- workload health ----------------------------------------------------
  [[nodiscard]] std::uint64_t brake_samples() const noexcept { return state_.samples; }
  [[nodiscard]] std::uint64_t frames_sent() const noexcept { return state_.frames; }
  [[nodiscard]] std::uint64_t wdg_kicks() const noexcept { return state_.kicks; }
  [[nodiscard]] std::uint64_t data_errors() const noexcept { return state_.errors; }
  [[nodiscard]] std::uint64_t doorbells() const noexcept { return state_.doorbells; }
  [[nodiscard]] std::uint64_t unknown_irqs() const noexcept {
    return state_.unknown_irqs;
  }

  // --- snapshot / restore ------------------------------------------------
  /// The workload's own run-mutable fields, declared once.
  struct State {
    bool configured = false;
    std::uint64_t samples = 0;
    std::uint64_t frames = 0;
    std::uint64_t kicks = 0;
    std::uint64_t errors = 0;
    std::uint64_t doorbells = 0;
    std::uint64_t unknown_irqs = 0;
    std::uint32_t pressure_raw = 0x800;  ///< simulated ADC mid-scale
    std::uint32_t frame_seq = 0;
    bool pending_frame = false;
    std::uint64_t quantum_counter = 0;

    bool operator==(const State&) const = default;
  };

  /// OS state plus the workload's. Restoring the power-on image (taken
  /// at construction) drops the task set; on_start() re-declares the
  /// workload. Holds no pointers, so any OsekImage restores it.
  struct Snapshot {
    osek::Os::Snapshot os;
    State state;

    bool operator==(const Snapshot&) const = default;
  };

  void snapshot_to(Snapshot& out) const {
    os_.snapshot_to(out.os);
    out.state = state_;
  }

  void restore_from(const Snapshot& snapshot) {
    os_.restore_from(snapshot.os);
    state_ = snapshot.state;
  }

 private:
  void declare_workload();

  // The task bodies, one per Step, in that order in kSteps.
  enum Step : std::uint32_t { kBrakeAcqStep, kFrameTxStep, kWdgKickStep, kSelfTestStep };
  void brake_acq_step(osek::TaskContext& ctx);
  void frame_tx_step(osek::TaskContext& ctx);
  void wdg_kick_step(osek::TaskContext& ctx);
  void self_test_step(osek::TaskContext& ctx);
  static const osek::StepFn kSteps[4];

  osek::Os os_;
  State state_;
};

}  // namespace mcs::guest
