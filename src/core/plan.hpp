// Test plans: the campaign parameters of §III.
//
// "The generated test plan consists of two classes of testing, defined by
// the fault intensity level: the medium level refers to a discontinuous
// bit flipping of a single register, generated once every given number of
// calls to the target functions, while the high level instead consists in
// a bit flip of multiple registers at the time. [...] an occurrence of
// once every 100 and 50 function calls for the medium and hard intensity,
// respectively. Each test lasts 1 min."
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/registers.hpp"
#include "core/fault_model.hpp"
#include "hypervisor/hypervisor.hpp"
#include "util/clock.hpp"

namespace mcs::fi {

inline constexpr std::uint32_t kMediumRate = 100;  ///< 1 injection / 100 calls
inline constexpr std::uint32_t kHighRate = 50;     ///< 1 injection / 50 calls
inline constexpr std::uint64_t kOneMinuteTicks = 60'000;

/// Everything one campaign needs; value type, cheap to copy/sweep.
struct TestPlan {
  std::string name = "unnamed";
  /// ScenarioRegistry key selecting the per-run workload lifecycle.
  std::string scenario = "freertos-steady";
  /// platform::BoardRegistry key selecting the testbed hardware variant
  /// each run is built on ("bananapi", "quad-a7", …).
  std::string board = "bananapi";
  jh::HookPoint target = jh::HookPoint::ArchHandleTrap;
  /// Which layer of the machine the injections corrupt. Register is the
  /// paper's baseline; the fault model fields below only apply there.
  /// Config-text vocabulary: "fault domain gic", "fault domain dram", …
  FaultDomain fault_domain = FaultDomain::Register;
  FaultModelKind fault = FaultModelKind::SingleBitFlip;
  std::vector<arch::Reg> fault_registers;  ///< empty → model default
  unsigned fault_count = 2;  ///< registers per injection (RandomMultiFlip)

  std::uint32_t rate = kMediumRate;  ///< inject every Nth filtered call
  std::uint64_t phase = 0;  ///< call index (1-based) of the first injection;
                            ///< 0 → rate (i.e. the Nth call, like the paper)
  int cpu_filter = -1;      ///< -1 = any CPU; 0/1 = "only when CPU k calls"

  std::uint64_t duration_ticks = kOneMinuteTicks;
  std::uint32_t runs = 30;
  std::uint64_t seed = 0xC0FFEE;

  /// Workload-cell tuning in the config-text vocabulary ("ram 0x200000",
  /// "console trapped"); empty → the factory cell configs as-is. Parsed
  /// with jh::parse_cell_tuning and applied to the staged non-root cell
  /// configs by the testbed; a malformed text is a HarnessError.
  std::string cell_tuning;

  /// When true, the injector is armed before the cell-management boot
  /// sequence (create/start) so injections can hit the management
  /// hypercalls and the CPU bring-up path — the §III high-intensity
  /// scenario. When false, the workload boots clean and injection starts
  /// with the steady state (the medium / Figure 3 scenario).
  bool inject_during_boot = false;

  [[nodiscard]] std::uint64_t first_injection_call() const noexcept {
    return phase == 0 ? rate : phase;
  }
};

/// Figure 3: medium intensity, non-root cell, arch_handle_trap on CPU 1.
[[nodiscard]] TestPlan paper_medium_trap_plan();

/// §III: high intensity against the root-cell context, arch_handle_hvc —
/// always "invalid arguments", cell never allocated.
[[nodiscard]] TestPlan paper_high_root_hvc_plan();

/// Same, with arch_handle_trap as the target.
[[nodiscard]] TestPlan paper_high_root_trap_plan();

/// §III: high intensity filtered to CPU 1 — the inconsistent cell state.
[[nodiscard]] TestPlan paper_high_nonroot_plan();

/// §III profiling rationale: corrupt the IRQ vector argument.
[[nodiscard]] TestPlan irq_vector_plan();

}  // namespace mcs::fi
