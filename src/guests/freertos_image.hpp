// The paper's FreeRTOS non-root cell workload (§III):
//
//   "within FreeRTOS we spawned several tasks to be managed, including a
//    task to blink an onboard led, a couple of send/receive tasks, two
//    floating-point arithmetic tasks, and fifteen integer ones."
//
// Every task prints self-validating heartbeats on the cell console (USART/
// UART1, trapped MMIO), which is the availability observable the run
// monitor classifies: a live cell produces a steady line flow; a broken
// one leaves the USART "completely blank".
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "guests/rtos/kernel.hpp"
#include "hypervisor/guest.hpp"

namespace mcs::guest {

class FreeRtosImage final : public jh::GuestImage {
 public:
  FreeRtosImage() noexcept : kernel_(kSteps, this) {}

  [[nodiscard]] std::string_view name() const override { return "freertos"; }
  void on_start(jh::GuestContext& ctx) override;
  void run_quantum(jh::GuestContext& ctx) override;
  void on_timer(jh::GuestContext& ctx) override;
  void on_irq(jh::GuestContext& ctx, std::uint32_t irq) override;

  [[nodiscard]] rtos::Kernel& kernel() noexcept { return kernel_; }
  [[nodiscard]] const rtos::Kernel& kernel() const noexcept { return kernel_; }

  // --- workload health counters (read by tests and the run monitor) ------
  [[nodiscard]] std::uint64_t blink_count() const noexcept { return state_.blinks; }
  [[nodiscard]] std::uint64_t messages_validated() const noexcept {
    return state_.rx_validated;
  }
  [[nodiscard]] std::uint64_t data_errors() const noexcept { return state_.data_errors; }
  [[nodiscard]] std::uint64_t unknown_irqs() const noexcept {
    return state_.unknown_irqs;
  }
  [[nodiscard]] std::uint64_t doorbells() const noexcept { return state_.doorbells; }

  /// Tick period of the guest tick interrupt (1 board tick = 1 ms).
  static constexpr std::uint32_t kTickPeriod = 1;

  /// Task counts per the paper.
  static constexpr int kIntegerTasks = 15;

  /// The workload's task roles, in the order of the image's static step
  /// table. A task's identity is its (step, param) pair: `param` is the
  /// FP index for kFpStep and the integer-task number for kIntStep.
  enum Step : std::uint32_t { kBlinkStep, kTxStep, kRxStep, kFpStep, kIntStep };

  /// Guest-RAM state block: the integer tasks keep their hash chains in
  /// cell memory with a redundant second copy (the classic ASIL
  /// dual-storage pattern), so DRAM faults are *detectable* by the
  /// application — the observable of the memory-fault campaign.
  static constexpr std::uint64_t kStateBase = 0x7800'2000;
  static constexpr std::uint64_t kShadowBase = 0x7800'2200;

  // --- snapshot / restore ------------------------------------------------
  /// The workload's own run-mutable fields, declared once.
  struct State {
    bool spawned = false;
    bool led_on = false;
    rtos::QueueId msg_queue = 0;
    std::uint32_t tx_seq = 0;
    std::uint32_t rx_seq = 0;
    std::uint64_t rx_validated = 0;
    std::uint64_t blinks = 0;
    std::uint64_t data_errors = 0;
    std::uint64_t unknown_irqs = 0;
    std::uint64_t doorbells = 0;
    std::uint64_t heartbeat_counter = 0;
    std::array<double, 2> fp_accumulators{};
    std::array<double, 2> fp_shadows{};
    std::array<std::uint64_t, 2> fp_iterations{};
    std::array<std::uint64_t, kIntegerTasks> int_iterations{};

    bool operator==(const State&) const = default;
  };

  /// Kernel state plus the workload's. Restoring the power-on image
  /// (taken at construction) drops the task set; on_start() re-spawns
  /// the workload. Holds no pointers, so any FreeRtosImage restores it.
  struct Snapshot {
    rtos::Kernel::Snapshot kernel;
    State state;

    bool operator==(const Snapshot&) const = default;
  };

  void snapshot_to(Snapshot& out) const {
    kernel_.snapshot_to(out.kernel);
    out.state = state_;
  }

  void restore_from(const Snapshot& snapshot) {
    kernel_.restore_from(snapshot.kernel);
    state_ = snapshot.state;
  }

 private:
  void spawn_workload();

  // The task steps, one per Step, in that order in kSteps.
  void blink_step(rtos::TaskContext& t);
  void tx_step(rtos::TaskContext& t);
  void rx_step(rtos::TaskContext& t);
  void fp_step(rtos::TaskContext& t);
  void int_step(rtos::TaskContext& t);
  static const rtos::StepFn kSteps[5];

  /// Reference checksum for the tx/rx stream (Fletcher-style).
  [[nodiscard]] static std::uint32_t message_checksum(std::uint32_t seq) noexcept;

  rtos::Kernel kernel_;
  State state_;
};

}  // namespace mcs::guest
