// ARMv7-A general-purpose register file as seen from HYP mode.
//
// The fault model of the paper flips random bits of random *architecture
// registers* at hypervisor entry, so the register file is the central
// attack surface: r0-r12 general purpose, r13 (SP), r14 (LR), r15 (PC),
// plus the CPSR. Registers are 32-bit, matching the Cortex-A7 target.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace mcs::arch {

using Word = std::uint32_t;

/// Register indices. r13-r15 have architectural roles.
enum class Reg : std::uint8_t {
  R0 = 0, R1, R2, R3, R4, R5, R6, R7, R8, R9, R10, R11, R12,
  SP = 13,   ///< r13 — stack pointer
  LR = 14,   ///< r14 — link register
  PC = 15,   ///< r15 — program counter
};

inline constexpr std::size_t kNumGeneralRegs = 16;
inline constexpr unsigned kWordBits = 32;

[[nodiscard]] std::string_view reg_name(Reg reg) noexcept;

/// Plain register bank: 16 words. No invariant — a struct (C.2).
struct RegisterBank {
  std::array<Word, kNumGeneralRegs> r{};

  [[nodiscard]] Word get(Reg reg) const noexcept {
    return r[static_cast<std::size_t>(reg)];
  }
  void set(Reg reg, Word value) noexcept {
    r[static_cast<std::size_t>(reg)] = value;
  }

  [[nodiscard]] Word& operator[](Reg reg) noexcept {
    return r[static_cast<std::size_t>(reg)];
  }
  [[nodiscard]] Word operator[](Reg reg) const noexcept {
    return r[static_cast<std::size_t>(reg)];
  }

  bool operator==(const RegisterBank&) const = default;
};

inline std::string_view reg_name(Reg reg) noexcept {
  constexpr std::array<std::string_view, kNumGeneralRegs> kNames{
      "r0", "r1", "r2",  "r3",  "r4",  "r5", "r6", "r7",
      "r8", "r9", "r10", "r11", "r12", "sp", "lr", "pc"};
  return kNames[static_cast<std::size_t>(reg)];
}

}  // namespace mcs::arch
