// GIC-400-style interrupt controller model (the Cortex-A7's GIC).
//
// Models the subset the hypervisor's `irqchip_handle_irq()` path needs:
// a distributor with per-line enable/pending/priority/target state and a
// per-CPU interface with acknowledge/EOI and a priority mask. Line ids
// follow the architecture: SGI 0-15 (per-CPU software interrupts), PPI
// 16-31 (per-CPU peripherals, e.g. the virtual timer), SPI 32+ (shared
// peripherals — UART, GPIO...). Acknowledge returns 1023 when nothing is
// pending ("spurious"), exactly what a corrupted vector number defaults to
// in the paper's profiling rationale for excluding the IRQ handler.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "util/status.hpp"

namespace mcs::irq {

using IrqId = std::uint32_t;

inline constexpr IrqId kFirstPpi = 16;
inline constexpr IrqId kFirstSpi = 32;
inline constexpr IrqId kNumIrqs = 128;
inline constexpr IrqId kSpuriousIrq = 1023;
inline constexpr int kMaxCpus = 8;
inline constexpr std::uint8_t kIdlePriority = 0xff;
inline constexpr std::uint8_t kDefaultPriority = 0xa0;

[[nodiscard]] constexpr bool is_sgi(IrqId irq) noexcept { return irq < kFirstPpi; }
[[nodiscard]] constexpr bool is_ppi(IrqId irq) noexcept {
  return irq >= kFirstPpi && irq < kFirstSpi;
}
[[nodiscard]] constexpr bool is_spi(IrqId irq) noexcept {
  return irq >= kFirstSpi && irq < kNumIrqs;
}

/// Distributor + CPU-interface state for up to kMaxCpus cores.
class Gic {
 public:
  explicit Gic(int num_cpus);

  [[nodiscard]] int num_cpus() const noexcept { return num_cpus_; }

  // --- distributor ------------------------------------------------------
  util::Status enable(IrqId irq);
  util::Status disable(IrqId irq);
  [[nodiscard]] bool is_enabled(IrqId irq) const noexcept;

  /// Priority: 0 = highest, 0xff = idle/lowest.
  util::Status set_priority(IrqId irq, std::uint8_t priority);
  [[nodiscard]] std::uint8_t priority(IrqId irq) const noexcept;

  /// Route an SPI to a CPU (single-target model, like Jailhouse's setup).
  util::Status set_target(IrqId irq, int cpu);
  [[nodiscard]] int target(IrqId irq) const noexcept;

  /// Assert a peripheral line (SPI) or per-CPU line (PPI needs the cpu).
  util::Status raise_spi(IrqId irq);
  util::Status raise_ppi(int cpu, IrqId irq);

  /// Software-generated interrupt from `source_cpu` to `target_cpu`.
  util::Status send_sgi(int source_cpu, int target_cpu, IrqId irq);

  // --- CPU interface ----------------------------------------------------
  /// Mask on the CPU interface: only priorities strictly below pass.
  void set_priority_mask(int cpu, std::uint8_t mask) noexcept;
  [[nodiscard]] std::uint8_t priority_mask(int cpu) const noexcept;

  /// Highest-priority pending enabled interrupt for `cpu`, without
  /// acknowledging it.
  [[nodiscard]] IrqId peek(int cpu) const noexcept;

  /// Acknowledge: pending → active, returns the line id (or spurious).
  [[nodiscard]] IrqId acknowledge(int cpu) noexcept;

  /// End of interrupt: active → idle. EINVAL if not active on this cpu.
  util::Status end_of_interrupt(int cpu, IrqId irq);

  [[nodiscard]] bool is_pending(IrqId irq, int cpu) const noexcept;
  [[nodiscard]] bool is_active(IrqId irq, int cpu) const noexcept;

  /// True iff `cpu` has any deliverable interrupt (drives the vIRQ wire).
  [[nodiscard]] bool irq_line(int cpu) const noexcept { return peek(cpu) != kSpuriousIrq; }

  // --- fault injection --------------------------------------------------
  /// Assert `irq` pending on `cpu` regardless of line type or routing
  /// (spurious-delivery fault). Out-of-range arguments are ignored. Keeps
  /// the pending-bitmap mirror coherent, so peek()/acknowledge() see the
  /// corruption immediately and snapshots restore it faithfully.
  void force_pending(int cpu, IrqId irq) noexcept {
    if (irq < kNumIrqs && cpu >= 0 && cpu < num_cpus_) mark_pending(cpu, irq);
  }

  /// Drop a pending assertion of `irq` on `cpu` (lost-interrupt fault).
  /// Out-of-range arguments are ignored; the mirror stays coherent.
  void squash_pending(int cpu, IrqId irq) noexcept {
    if (irq < kNumIrqs && cpu >= 0 && cpu < num_cpus_) clear_pending(cpu, irq);
  }

  /// Drop all pending/active state for a CPU (cell destruction reclaim).
  void reset_cpu(int cpu) noexcept;

  // --- statistics -------------------------------------------------------
  [[nodiscard]] std::uint64_t delivered(IrqId irq) const noexcept;

  // --- snapshot / restore (testbed warm-start) --------------------------
  struct Line {
    bool enabled = false;
    std::uint8_t priority = kIdlePriority;
    int target = 0;                     // SPI routing
    std::array<bool, kMaxCpus> pending{};  // per-CPU for SGI/PPI; [target] for SPI
    std::array<bool, kMaxCpus> active{};
    std::uint64_t delivered = 0;

    bool operator==(const Line&) const = default;
  };

  /// The whole distributor + CPU-interface state, declared once and
  /// trivially copyable: the state block is the snapshot. The pending
  /// bitmap is a derived cache, not state — restore rebuilds it.
  struct State {
    std::array<Line, kNumIrqs> lines{};
    std::array<std::uint8_t, kMaxCpus> priority_mask{};

    bool operator==(const State&) const = default;
  };
  using Snapshot = State;

  void snapshot_to(Snapshot& out) const noexcept { out = state_; }

  void restore_from(const Snapshot& snapshot) noexcept {
    state_ = snapshot;
    rebuild_pending_bits();
  }

 private:

  /// Per-CPU pending summary: bit `irq` mirrors lines[irq].pending[cpu].
  /// peek() visits only set bits, so the machine's once-per-tick-per-CPU
  /// "anything deliverable?" poll costs two word compares when quiescent
  /// instead of a scan over all kNumIrqs lines. Every site that writes a
  /// Line's pending flag keeps the mirror in sync; restore_from rebuilds
  /// it from the lines (the snapshot stays plain Line state).
  static constexpr std::size_t kPendingWords = (kNumIrqs + 63) / 64;
  using PendingBits = std::array<std::uint64_t, kPendingWords>;

  void mark_pending(int cpu, IrqId irq) noexcept {
    state_.lines[irq].pending[static_cast<std::size_t>(cpu)] = true;
    pending_bits_[static_cast<std::size_t>(cpu)][irq / 64] |=
        std::uint64_t{1} << (irq % 64);
  }
  void clear_pending(int cpu, IrqId irq) noexcept {
    state_.lines[irq].pending[static_cast<std::size_t>(cpu)] = false;
    pending_bits_[static_cast<std::size_t>(cpu)][irq / 64] &=
        ~(std::uint64_t{1} << (irq % 64));
  }
  void rebuild_pending_bits() noexcept;

  [[nodiscard]] util::Status check_irq(IrqId irq) const;
  [[nodiscard]] util::Status check_cpu(int cpu) const;

  int num_cpus_;
  State state_;
  std::array<PendingBits, kMaxCpus> pending_bits_{};
};

}  // namespace mcs::irq
