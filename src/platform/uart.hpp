// 16550-style UART with full serial capture.
//
// §III: "the outcome is sent to an empty shell where the board serial port
// is connected" and the inconsistent-cell finding is detected by "the
// USART output left completely blank". The capture buffer is therefore a
// first-class experiment observable: the run monitor asserts liveness by
// watching bytes and complete lines emitted per cell.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "irq/gic.hpp"
#include "platform/device.hpp"

namespace mcs::platform {

/// Register offsets (subset of the 16550 map the guests use).
inline constexpr std::uint64_t kUartThr = 0x00;  ///< transmit holding (W)
inline constexpr std::uint64_t kUartRbr = 0x00;  ///< receive buffer (R)
inline constexpr std::uint64_t kUartIer = 0x04;  ///< interrupt enable
inline constexpr std::uint64_t kUartLsr = 0x14;  ///< line status
inline constexpr std::uint32_t kLsrThrEmpty = 1u << 5;
inline constexpr std::uint32_t kLsrDataReady = 1u << 0;

/// Time-quiescent device: transmission is instantaneous in the model, so
/// the UART publishes no deadline (inherits kNoDeadline) and never
/// constrains the board's event-driven leaps.
class Uart final : public Device {
 public:
  /// `gic`/`tx_irq` may be null/0 for a polled-only port.
  Uart(std::string name, PhysAddr base, irq::Gic* gic, irq::IrqId tx_irq);

  [[nodiscard]] util::Expected<std::uint32_t> mmio_read(std::uint64_t offset) override;
  util::Status mmio_write(std::uint64_t offset, std::uint32_t value) override;

  /// Everything ever transmitted (the log the paper collects).
  [[nodiscard]] const std::string& captured() const noexcept { return state_.captured; }

  /// Transmitted bytes since the given high-water mark; used by the run
  /// monitor to detect a silent (blank-output) cell.
  [[nodiscard]] std::size_t bytes_since(std::size_t mark) const noexcept {
    return state_.captured.size() >= mark ? state_.captured.size() - mark : 0;
  }
  [[nodiscard]] std::size_t total_bytes() const noexcept { return state_.captured.size(); }

  /// Completed lines (split on '\n').
  [[nodiscard]] std::vector<std::string> lines() const;

  /// Host-side input (loopback/test support).
  void feed_rx(std::string_view data);

  void clear_capture() noexcept { state_.captured.clear(); }

  // --- snapshot / restore (testbed warm-start) --------------------------
  /// The port's run-mutable registers and its capture, declared once:
  /// the state block is the snapshot. The capture holds the bytes
  /// themselves, so a snapshot restores the same console history on any
  /// port; a live capture's capacity only grows, so the steady restore
  /// path allocates nothing.
  struct State {
    std::string rx_fifo;
    bool tx_irq_enabled = false;
    std::string captured;  ///< everything transmitted

    bool operator==(const State&) const = default;
  };
  using Snapshot = State;

  void snapshot_to(Snapshot& out) const { out = state_; }

  void restore_from(const Snapshot& snapshot) { state_ = snapshot; }

 private:
  irq::Gic* gic_;
  irq::IrqId tx_irq_;
  State state_;
};

}  // namespace mcs::platform
