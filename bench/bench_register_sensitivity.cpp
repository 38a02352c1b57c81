// A2 (ablation) — per-register outcome sensitivity.
//
// Forces the medium campaign to flip exactly one chosen register and
// reports the outcome distribution per register. This is the measured
// form of the handler register-liveness table in DESIGN.md §5: the five
// "hot" registers (r0, r12, sp, lr, pc) panic, r1/r2 park a share, the
// dead registers (r5-r11) never fail.
//
//   $ ./bench_register_sensitivity [runs_per_register]   (default 15)
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "core/executor.hpp"

int main(int argc, char** argv) {
  using namespace mcs;
  const auto runs =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 15;

  std::cout << "A2 — outcome distribution by flipped register (medium model)\n";
  std::cout << std::string(70, '=') << "\n";
  std::cout << std::left << std::setw(8) << "reg" << std::right << std::setw(10)
            << "correct" << std::setw(12) << "panic-park" << std::setw(10)
            << "cpu-park" << "   liveness\n";
  std::cout << std::string(70, '-') << "\n";

  for (std::size_t i = 0; i < arch::kNumGeneralRegs; ++i) {
    const auto reg = static_cast<arch::Reg>(i);
    fi::TestPlan plan = fi::paper_medium_trap_plan();
    plan.fault_registers = {reg};
    plan.runs = runs;
    plan.rate = 20;  // several injections per run to expose partial classes
    plan.phase = 1;
    plan.duration_ticks = 20'000;
    plan.seed = 0xA2'00 + i;
    fi::CampaignExecutor campaign(plan, {1});
    const fi::CampaignResult result = campaign.execute();
    const fi::OutcomeDistribution dist = result.distribution();

    const char* liveness = "dead (scratch)";
    switch (reg) {
      case arch::Reg::R0: liveness = "trap-context pointer"; break;
      case arch::Reg::R1: liveness = "syndrome (HSR)"; break;
      case arch::Reg::R2: liveness = "payload: code/fault addr"; break;
      case arch::Reg::R3: liveness = "payload: arg/value"; break;
      case arch::Reg::R4: liveness = "payload: arg1"; break;
      case arch::Reg::R12: liveness = "per-CPU pointer"; break;
      case arch::Reg::SP: liveness = "HYP stack"; break;
      case arch::Reg::LR: liveness = "return trampoline"; break;
      case arch::Reg::PC: liveness = "handler pc"; break;
      default: break;
    }
    std::cout << std::left << std::setw(8) << arch::reg_name(reg) << std::right
              << std::fixed << std::setprecision(0) << std::setw(9)
              << dist.fraction(fi::Outcome::Correct) * 100 << "%"
              << std::setw(11) << dist.fraction(fi::Outcome::PanicPark) * 100
              << "%" << std::setw(9)
              << dist.fraction(fi::Outcome::CpuPark) * 100 << "%   "
              << liveness << "\n";
  }
  std::cout << std::string(70, '-') << "\n";
  std::cout << "expectation: r0/r12/sp/lr/pc -> panic; r1/r2 -> partial "
               "cpu-park; r3-r11 benign\n";
  return 0;
}
